"""The CCF node: enclave + KV + ledger + consensus + frontend (Figure 2)."""
