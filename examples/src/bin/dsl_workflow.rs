//! The specification-language workflow the paper's conclusion asks
//! for: describe a protocol in the `.ccv` language, verify it, and
//! export machine-written protocols back to text.
//!
//! The protocol below is a **write-once variant with an eager second
//! state** written directly in the DSL — it is not one of the library
//! constructors, demonstrating that the language is the interface, not
//! a serialization detail.
//!
//! Run: `cargo run -p ccv-examples --bin dsl_workflow`

use ccv_core::{global_graph, verify, Verdict};
use ccv_model::dsl::{parse_protocol, to_dsl};

const SOURCE: &str = r#"
# A three-state write-back protocol with eager read-exclusive fills:
# like MSI, but a write miss and a read miss both use read-for-ownership
# when the block is uncached, so a private read-modify-write sequence
# costs one bus transaction. (This is E-less MESI with an aggressive
# fill policy, written from scratch in the .ccv language.)
protocol EagerMSI {
    characteristic sharing;

    state Invalid  as I invalid;
    state Shared   as S copy;
    state Modified as M copy owned exclusive silent-write;

    from Invalid {
        # Alone: take the block exclusively right away.
        read when alone  -> Modified via BusRdX fill;
        read when shared -> Shared   via BusRd  fill;
        write -> Modified via BusRdX fill;
        replace -> Invalid;
    }
    from Shared {
        read  -> Shared;
        write -> Modified via BusUpgr;
        replace -> Invalid;
    }
    from Modified {
        read  -> Modified;
        write -> Modified;
        replace -> Invalid writeback;
    }

    snoop Shared {
        BusRd   -> Shared supply;
        BusRdX  -> Invalid;
        BusUpgr -> Invalid;
    }
    snoop Modified {
        BusRd  -> Shared  supply flush;
        BusRdX -> Invalid supply flush;
    }
}
"#;

fn main() {
    println!(
        "[1] parsing the .ccv source ({} lines)...",
        SOURCE.lines().count()
    );
    let spec = match parse_protocol(SOURCE) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error at {e}");
            std::process::exit(1);
        }
    };
    println!(
        "    parsed protocol '{}' with {} states",
        spec.name(),
        spec.num_states()
    );

    println!("\n[2] verifying...");
    let report = verify(&spec);
    println!(
        "    verdict: {} ({} essential states, {} visits)",
        report.verdict,
        report.num_essential(),
        report.visits()
    );
    for (i, s) in global_graph(&spec, &report.expansion)
        .states
        .iter()
        .enumerate()
    {
        println!("      s{i}: {}", s.render(&spec));
    }
    assert_eq!(report.verdict, Verdict::Verified);

    println!("\n[3] exporting back to .ccv (fixpoint check)...");
    let exported = to_dsl(&spec);
    let reparsed = parse_protocol(&exported).expect("exported text must reparse");
    assert_eq!(to_dsl(&reparsed), exported, "export is a fixpoint");
    println!(
        "    export -> parse -> export is stable ({} bytes).",
        exported.len()
    );

    println!("\nA protocol that existed only as text is now formally verified. ∎");
}
