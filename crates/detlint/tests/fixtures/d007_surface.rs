// D007 over one production-crate file: which `pub` items have a user
// outside it. The tests mount user files beside it; on its own, `uncalled`
// and `Orphan` fire and everything else is silent.

/// Named only by this file's tests.
pub struct Orphan {
    pub value: u32,
}

impl Orphan {
    pub fn new(value: u32) -> Self {
        Orphan { value }
    }
}

/// Named by a public signature below, so in use.
pub struct Carrier;

// detlint::allow(D007, reason = "fixture: the signature that names Carrier")
pub fn carry() -> Carrier {
    Carrier
}

/// Called by nobody: "uncalled" in a string is not a call.
pub fn uncalled() -> &'static str {
    "uncalled"
}

pub fn used_by_crate_tests() {}
pub fn used_by_example() {}
pub fn used_by_root_tests() {}
pub fn used_by_perfbench() {}

pub const LIMIT: usize = 4;

pub(crate) fn rustc_decides() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exercised_only_here() {
        assert_eq!(Orphan::new(LIMIT as u32).value, 4);
        assert_eq!(uncalled(), "uncalled");
        rustc_decides();
    }
}
