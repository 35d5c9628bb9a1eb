//! Empty offline stand-in: the workspace declares `parking_lot` but no code uses it.
