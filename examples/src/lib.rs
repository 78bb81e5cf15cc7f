//! Runnable examples for the `catbatch` workspace (see the `[[bin]]`
//! targets: `quickstart`, `hpc_campaign`, `adversarial`, `strip_demo`).
