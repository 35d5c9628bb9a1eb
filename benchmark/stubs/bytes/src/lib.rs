//! Empty offline stand-in: the workspace declares `bytes` but no code uses it.
