//! Empty offline stand-in: the workspace declares `rand_distr` but no code uses it.
