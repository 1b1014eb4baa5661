//! The bytes of `ccv-response-v1` bodies.
//!
//! `Response::render_compact` writes verify bodies directly, without a
//! `Json` tree; `Response::to_json` keeps building the tree. The first
//! test holds the two renderings byte-identical over the protocol
//! library, two mutant families and every response shape. The second
//! pins the length and digest of three verify bodies as `ccv serve`
//! sends them, so a drift in either rendering (or in the report behind
//! it) fails here even though both writers would still agree.

use ccv_core::api::{
    Payload, ProtocolSource, Request, RequestOptions, Response, RunContext, SessionRunner,
};
use ccv_model::dsl::to_dsl;
use ccv_model::mutate::single_mutants;
use ccv_model::protocols::{all_buggy, all_correct, by_name, illinois, split_mesi};
use ccv_model::ProtocolSpec;
use ccv_serve::{ServerConfig, Service};

fn assert_writers_agree(resp: &Response, what: &str) {
    let direct = resp.render_compact();
    let tree = resp.to_json().render_compact();
    // Not assert_eq!: a failure would print bodies of up to 16 MB.
    assert!(direct == tree, "{what}: direct and tree renderings differ");
}

fn verify(runner: &mut SessionRunner, spec: &ProtocolSpec) -> Response {
    runner.run(
        &Request::verify(ProtocolSource::Spec(spec.clone())),
        &RunContext::default(),
    )
}

#[test]
fn direct_writer_matches_the_json_tree() {
    let mut runner = SessionRunner::new();
    let buggy = all_buggy().into_iter().map(|(spec, _)| spec);
    for spec in all_correct().into_iter().chain(buggy) {
        assert_writers_agree(&verify(&mut runner, &spec), spec.name());
    }
    for root in [illinois(), split_mesi()] {
        for (i, m) in single_mutants(&root).iter().enumerate() {
            let what = format!("{}#{i}", root.name());
            assert_writers_agree(&verify(&mut runner, &m.spec), &what);
        }
    }

    let stopped = runner.run(
        &Request::verify(ProtocolSource::Spec(illinois())).options(RequestOptions {
            budget: Some(3),
            ..RequestOptions::default()
        }),
        &RunContext::default(),
    );
    assert!(!stopped.is_conclusive());
    assert!(stopped.render_compact().contains("\"stop\":{\"reason\":"));
    assert_writers_agree(&stopped, "budget-stopped verify");

    let source = || ProtocolSource::Name("illinois".into());
    let others = [
        (Request::enumerate(source(), 3), "enumerate"),
        (Request::crosscheck(source(), 3), "crosscheck"),
        (
            Request::verify(ProtocolSource::Name("no-such-protocol".into())),
            "error",
        ),
    ];
    for (req, what) in others {
        let resp = runner.run(&req, &RunContext::default());
        match (&resp.result, what) {
            (Ok(Payload::Enumerate(_)), "enumerate")
            | (Ok(Payload::Crosscheck(_)), "crosscheck")
            | (Err(_), "error") => {}
            (other, _) => panic!("{what}: unexpected result {other:?}"),
        }
        assert_writers_agree(&resp, what);
    }
}

#[test]
fn verify_bodies_keep_their_pinned_bytes() {
    // (protocol, body length, integrity digest), taken from the
    // tree-rendered bodies before the direct writer existed. Each
    // protocol is sent as DSL text, as a remote client would.
    let pins = [
        (illinois(), 861, 0xe5aa_06cc_4e9b_691a_u64),
        (
            by_name("illinois-missing-invalidation").expect("library mutant"),
            78_466,
            0xd3b5_9907_1c17_0ed2,
        ),
        // The largest verify body of the mutant corpus.
        (
            single_mutants(&split_mesi()).swap_remove(38).spec,
            16_526_779,
            0x347c_1b80_a8ca_1f57,
        ),
    ];
    let service = Service::new(ServerConfig::default());
    for (spec, len, digest) in pins {
        let text = Request::verify(ProtocolSource::Dsl(to_dsl(&spec)))
            .to_json()
            .render_compact();
        let out = service.process_text(&text, &RunContext::default());
        assert_eq!(out.code, None, "{}", spec.name());
        assert_eq!(
            (
                out.body.len(),
                ccv_enum::fxhash::integrity_digest(out.body.as_bytes())
            ),
            (len, digest),
            "{}: body bytes drifted",
            spec.name()
        );
    }
}
