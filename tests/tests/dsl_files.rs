//! Integration tests for the `.ccv` protocol description language:
//! the checked-in protocol files, which define the library, are
//! canonical exports and verify; malformed inputs fail gracefully
//! (never panic).

use ccv_core::{Batch, Verdict};
use ccv_model::dsl::{parse_protocol, to_dsl};
use ccv_model::protocols;
use proptest::prelude::*;

fn repo_file(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../protocols");
    std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("reading protocols/{name}: {e}"))
}

/// Every library protocol, by the name of its `protocols/<name>.ccv` file.
const LIBRARY_FILES: [&str; 12] = [
    "write-through",
    "msi",
    "illinois",
    "mesi-mem",
    "write-once",
    "synapse",
    "berkeley",
    "firefly",
    "dragon",
    "moesi",
    "split-msi",
    "split-mesi",
];

#[test]
fn checked_in_protocol_files_are_canonical_exports() {
    // The library is parsed from these files, so comparing specs would
    // compare a file with itself. Instead pin the files to the
    // printer: each must be exactly what `ccv export <name>` writes.
    for name in LIBRARY_FILES {
        let spec = protocols::by_name(name).unwrap_or_else(|| panic!("{name} not in the library"));
        assert_eq!(
            to_dsl(&spec),
            repo_file(&format!("{name}.ccv")),
            "{name}.ccv"
        );
    }
}

#[test]
fn checked_in_protocol_files_all_verify() {
    // The whole suite runs through one batch verification session.
    let mut batch = Batch::new();
    for name in LIBRARY_FILES {
        let file = format!("{name}.ccv");
        let spec = parse_protocol(&repo_file(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(batch.summarize(&spec).verdict, Verdict::Verified, "{file}");
    }
}

#[test]
fn export_parse_export_is_a_fixpoint() {
    for spec in protocols::all_correct() {
        let once = to_dsl(&spec);
        let twice = to_dsl(&parse_protocol(&once).unwrap());
        assert_eq!(once, twice, "{}", spec.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn mangled_sources_error_but_never_panic(
        which in 0usize..8,
        cut in 0usize..2000,
        insert in proptest::sample::select(vec![
            "", ";", "}", "{", "->", "when", "via BusRd", "fizz", "#",
        ]),
    ) {
        // Take a valid protocol source, cut it at an arbitrary byte
        // boundary and splice junk in. The parser must return Ok or a
        // positioned error — anything but a panic.
        let spec = protocols::all_correct().swap_remove(which);
        let src = to_dsl(&spec);
        let mut pos = cut.min(src.len());
        while !src.is_char_boundary(pos) {
            pos -= 1;
        }
        let mangled = format!("{}{}{}", &src[..pos], insert, &src[pos..]);
        match parse_protocol(&mangled) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(e.line >= 1 && e.col >= 1);
                prop_assert!(!e.message.is_empty());
            }
        }
    }

    #[test]
    fn truncated_sources_error_but_never_panic(
        which in 0usize..8,
        keep in 0usize..2000,
    ) {
        let spec = protocols::all_correct().swap_remove(which);
        let src = to_dsl(&spec);
        let mut pos = keep.min(src.len());
        while !src.is_char_boundary(pos) {
            pos -= 1;
        }
        let _ = parse_protocol(&src[..pos]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn arbitrary_ascii_never_panics_the_parser(src in "[ -~\n]{0,300}") {
        // Raw fuzz: any printable-ASCII string must produce Ok or a
        // positioned error, never a panic.
        match parse_protocol(&src) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.line >= 1 && e.col >= 1),
        }
    }

    #[test]
    fn arbitrary_tokens_never_panic_the_parser(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "protocol", "state", "from", "snoop", "characteristic",
                "read", "write", "replace", "when", "via", "alone",
                "shared", "owned", "fill", "through", "broadcast",
                "writeback", "supply", "flush", "update", "invalid",
                "copy", "exclusive", "silent-write", "BusRd", "BusRdX",
                "X", "Y", "{", "}", ";", "->", "as",
            ]),
            0..60,
        ),
    ) {
        let src = words.join(" ");
        let _ = parse_protocol(&src);
    }
}
