//! Properties of the scheme registry: every builtin id resolves to its
//! scheme under the default configuration, directly and through a
//! `SchemeSpec`, and arbitrary strings never alias a registered scheme.

use ace_core::{
    BbvManagerConfig, HotspotManagerConfig, PdmManagerConfig, PositionalManagerConfig, Scheme,
    SchemeRegistry, SchemeSpec,
};
use proptest::prelude::*;

/// The builtin registry's ids, in registration order.
const NAMED: [&str; 5] = ["baseline", "hotspot", "bbv", "positional", "pdm"];

#[test]
fn every_named_scheme_resolves() {
    let registry = SchemeRegistry::builtin();
    assert!(registry.names().eq(NAMED));
    let defaults = [
        Scheme::Baseline,
        Scheme::Hotspot(HotspotManagerConfig::default()),
        Scheme::Bbv(BbvManagerConfig::default()),
        Scheme::Positional(PositionalManagerConfig::default()),
        Scheme::Pdm(PdmManagerConfig::default()),
    ];
    for (name, default) in NAMED.into_iter().zip(defaults) {
        let resolved = registry
            .get(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert_eq!(resolved.name(), name);
        assert_eq!(resolved, default);

        // A named spec carries the id and resolves to the same scheme,
        // and so does a spec holding the value.
        let spec = SchemeSpec::from(name);
        assert_eq!(spec.id(), name);
        assert_eq!(spec.resolve(), Some(default.clone()));
        assert_eq!(SchemeSpec::from(default.clone()).resolve(), Some(default));
    }
}

/// Candidate scheme ids: half the cases draw a genuine name (possibly
/// mutated by one appended letter), the rest a random lowercase string —
/// so the property exercises both the registered and unregistered sides.
fn arb_name() -> impl Strategy<Value = String> {
    (
        0u64..10,
        prop::collection::vec(97u8..123, 0..13),
        prop::option::of(97u8..123),
    )
        .prop_map(|(pick, bytes, tail)| {
            if let Some(name) = NAMED.get(pick as usize) {
                let mut name = name.to_string();
                if let Some(extra) = tail {
                    name.push(extra as char);
                }
                name
            } else {
                String::from_utf8(bytes).expect("ascii lowercase")
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lookup is exact: a string resolves in the builtin registry iff it
    /// is one of the builtin ids.
    #[test]
    fn builtin_lookup_is_exact(name in arb_name()) {
        let registry = SchemeRegistry::builtin();
        prop_assert_eq!(
            registry.get(&name).is_some(),
            NAMED.contains(&name.as_str())
        );
    }
}
