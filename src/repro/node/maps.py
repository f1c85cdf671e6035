"""CCF's built-in map names (Table 3).

All built-in maps are public: governance and internal bookkeeping can be
audited without decrypting the ledger (section 3.3).
"""

GOV_PREFIX = "public:ccf.gov."
INTERNAL_PREFIX = "public:ccf.internal."

USERS_CERTS = GOV_PREFIX + "users.certs"
MEMBERS_CERTS = GOV_PREFIX + "members.certs"
MEMBERS_KEYS = GOV_PREFIX + "members_keys"  # members' public encryption keys
NODES_INFO = GOV_PREFIX + "nodes.info"
NODES_CODE_IDS = GOV_PREFIX + "nodes.code_ids"
SERVICE_INFO = GOV_PREFIX + "service.info"
CONSTITUTION = GOV_PREFIX + "constitution"
MODULES = GOV_PREFIX + "modules"  # JavaScript application logic
ENDPOINTS = GOV_PREFIX + "endpoints"  # JavaScript endpoint metadata
PROPOSALS = GOV_PREFIX + "proposals"
PROPOSALS_INFO = GOV_PREFIX + "proposals_info"
HISTORY = GOV_PREFIX + "history"  # signed governance requests
JWT_ISSUERS = GOV_PREFIX + "jwt.issuers"

SIGNATURES = INTERNAL_PREFIX + "signatures"
LEDGER_SECRET = INTERNAL_PREFIX + "ledger_secret"  # wrapped ledger secret
RECOVERY_SHARES = INTERNAL_PREFIX + "recovery_shares"
SNAPSHOT_EVIDENCE = INTERNAL_PREFIX + "snapshot_evidence"

# Service lifecycle statuses stored in SERVICE_INFO under key "service".
SERVICE_OPENING = "Opening"
SERVICE_OPEN = "Open"
SERVICE_RECOVERING = "Recovering"
SERVICE_WAITING_FOR_SHARES = "WaitingForRecoveryShares"
