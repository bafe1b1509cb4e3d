//! Test configuration, case outcomes, and the deterministic RNG.

/// How many inputs each property draws.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The outcome of one drawn case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The input did not satisfy a `prop_assume!` precondition.
    Reject(String),
    /// A `prop_assert!` failed.
    Fail(String),
}

impl TestCaseError {
    /// A failed assertion with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected precondition with the given message.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "case failed: {m}"),
        }
    }
}

/// A deterministic generator seeded from the test's module path and name, so
/// every run of a given test draws the same inputs.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Builds the generator for `name` (normally `module_path!()::test_name`).
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name, then SplitMix64 expansion.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut sm = h;
        let mut next = || rand::splitmix64(&mut sm);
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }

    /// A uniform draw from [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
