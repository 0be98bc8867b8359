//! The six registry circuits against their §IV relations in
//! `zkdet_circuits::spec`.
//!
//! For each circuit, over an honest instance and a mutation table:
//!
//! * **differential** — the circuit synthesized from `(shape, x, w)`
//!   accepts exactly when `spec::…::holds(shape, x, w)` does. Synthesis
//!   recomputes every derived wire from the mutated inputs, so this asks
//!   the relation question, not "was the witness tampered";
//! * **wire overwrites** — one statement or witness wire of the honest
//!   *compiled* assignment overwritten (`+1`): `is_satisfied` must agree
//!   with the spec on the correspondingly edited `(x, w)`;
//! * **statement audit** — the circuit's public inputs (both its
//!   `public_inputs()` helper and the values the builder exposes) equal the
//!   spec's statement, and no variable carrying a witness-only value (key,
//!   blinder, plaintext) shares a copy class with a public input.
//!
//! Three wrong circuits at the bottom are complete on their own samples,
//! lint-clean and witness-independent — everything the other suites
//! check — and each fails this net.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use rand::rngs::StdRng;
use rand::Rng;
use zkdet_analyzer::{analyze, structural_digest, Severity};
use zkdet_circuits::exchange::RangePredicate;
use zkdet_circuits::gadgets::{assert_range, mimc_ctr_encrypt, poseidon_commit, poseidon_hash};
use zkdet_circuits::spec::{
    aggregation, duplication, encryption, key_negotiation, partition, validation,
};
use zkdet_circuits::{
    AggregationCircuit, DuplicationCircuit, EncryptionCircuit, KeyNegotiationCircuit,
    PartitionCircuit, ValidationCircuit,
};
use zkdet_crypto::commitment::{Commitment, CommitmentScheme, Opening};
use zkdet_crypto::mimc::{Ciphertext, MimcCtr};
use zkdet_crypto::poseidon::Poseidon;
use zkdet_field::{Field, Fr};
use zkdet_plonk::CircuitBuilder;
use zkdet_tests::rng;

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, mapping a panic to `None`. The builder's debug gate check
/// panics at the first unsatisfied row and the circuits assert their
/// shape, so a panic here means "rejected"; its message is silenced on
/// this thread only.
fn quietly<T>(f: impl FnOnce() -> T) -> Option<T> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f)).ok();
    QUIET.with(|q| q.set(false));
    out
}

/// Whether a verifier holding `statement` accepts what `synth` builds: the
/// circuit is satisfied and exposes exactly `statement`.
fn accepts(statement: &[Fr], synth: impl FnOnce() -> CircuitBuilder) -> bool {
    quietly(|| {
        let compiled = synth().build();
        compiled.is_satisfied() && compiled.public_values() == statement
    })
    .unwrap_or(false)
}

/// One circuit under test beside its relation.
struct Net<S, X, W> {
    holds: fn(&S, &X, &W) -> bool,
    synth: fn(&S, &X, &W) -> CircuitBuilder,
    /// The spec's statement vector.
    statement: fn(&X) -> Vec<Fr>,
    /// The circuit's own `public_inputs` helper.
    circuit_statement: fn(&S, &X) -> Vec<Fr>,
    /// Every witness-only value.
    secrets: fn(&W) -> Vec<Fr>,
}

type Case<S, X, W> = (String, S, X, W);
type Slot<X, W> = (
    String,
    Box<dyn for<'a> Fn(&'a mut X, &'a mut W) -> &'a mut Fr>,
);

/// A named statement or witness scalar, for the wire-overwrite checks.
fn slot<X, W>(
    label: impl Into<String>,
    at: impl for<'a> Fn(&'a mut X, &'a mut W) -> &'a mut Fr + 'static,
) -> Slot<X, W> {
    (label.into(), Box::new(at))
}

/// Runs the three checks; returns one line per disagreement.
fn run<S: Clone, X: Clone, W: Clone>(
    net: &Net<S, X, W>,
    shape: &S,
    x: &X,
    w: &W,
    cases: Vec<Case<S, X, W>>,
    slots: Vec<Slot<X, W>>,
) -> Vec<String> {
    let mut bad = Vec::new();
    assert!(
        (net.holds)(shape, x, w),
        "the honest instance violates the spec"
    );
    let mut verdicts = [0usize; 2];
    for (label, s, cx, cw) in cases {
        let want = (net.holds)(&s, &cx, &cw);
        let got = accepts(&(net.statement)(&cx), || (net.synth)(&s, &cx, &cw));
        verdicts[usize::from(want)] += 1;
        if got != want {
            bad.push(format!(
                "differential `{label}`: circuit {got}, spec {want}"
            ));
        }
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "the mutation table needs both verdicts: {verdicts:?}"
    );

    let Some(b) = quietly(|| (net.synth)(shape, x, w)) else {
        bad.push("the honest instance does not synthesize".into());
        return bad;
    };
    let honest = b.clone().build();
    for (label, slot) in slots {
        let (mut cx, mut cw) = (x.clone(), w.clone());
        let value = *slot(&mut cx, &mut cw);
        *slot(&mut cx, &mut cw) += Fr::ONE;
        let want = (net.holds)(shape, &cx, &cw);
        let mut compiled = honest.clone();
        match compiled.find_assignment(value) {
            Some(index) => {
                compiled.tamper_assignment(index, value + Fr::ONE);
                let got = compiled.is_satisfied();
                if got != want {
                    bad.push(format!("overwrite `{label}`: circuit {got}, spec {want}"));
                }
            }
            None => bad.push(format!("overwrite `{label}`: no wire carries the value")),
        }
    }

    let exposed: Vec<Fr> = b
        .public_input_variables()
        .iter()
        .map(|v| b.value(*v))
        .collect();
    let spec_statement = (net.statement)(x);
    if exposed != spec_statement {
        bad.push(format!(
            "statement: the circuit exposes {} public inputs, the spec {} (or their values differ)",
            exposed.len(),
            spec_statement.len()
        ));
    }
    if (net.circuit_statement)(shape, x) != spec_statement {
        bad.push("statement: the circuit's public_inputs() differs from the spec".into());
    }
    let secrets = (net.secrets)(w);
    let public_classes: Vec<_> = b
        .public_input_variables()
        .iter()
        .map(|v| b.copy_representative(*v))
        .collect();
    for v in b.variables() {
        if secrets.contains(&b.value(v)) && public_classes.contains(&b.copy_representative(v)) {
            bad.push(format!(
                "statement: variable {} carries a witness-only value in a public input's copy class",
                v.index()
            ));
        }
    }
    bad
}

fn commit(message: &[Fr], opening: Fr) -> Fr {
    CommitmentScheme::commit_with(message, &Opening(opening)).0
}

fn random(r: &mut StdRng, n: usize) -> Vec<Fr> {
    (0..n).map(|_| Fr::random(r)).collect()
}

fn assert_clean(name: &str, bad: &[String]) {
    assert!(bad.is_empty(), "{name}:\n  {}", bad.join("\n  "));
}

// ------------------------------------------------------------- π_e ---

const PI_E: Net<usize, encryption::Statement, encryption::Witness> = Net {
    holds: |blocks, x, w| encryption::holds(*blocks, x, w),
    synth: |blocks, x, w| {
        EncryptionCircuit::new(*blocks).synthesize_builder(
            &w.plaintext,
            w.key,
            &Ciphertext {
                nonce: x.nonce,
                blocks: x.ciphertext.clone(),
            },
            &Commitment(x.commitment),
            &Opening(w.opening),
        )
    },
    statement: encryption::Statement::public_inputs,
    circuit_statement: |blocks, x| {
        let ct = Ciphertext {
            nonce: x.nonce,
            blocks: x.ciphertext.clone(),
        };
        EncryptionCircuit::new(*blocks).public_inputs(&ct, &Commitment(x.commitment))
    },
    secrets: |w| {
        let mut s = w.plaintext.clone();
        s.extend([w.key, w.opening]);
        s
    },
};

fn encrypt(key: Fr, nonce: Fr, plaintext: &[Fr]) -> Vec<Fr> {
    MimcCtr::new(key, nonce).encrypt(plaintext).blocks
}

fn pi_e_instance(r: &mut StdRng, blocks: usize) -> (encryption::Statement, encryption::Witness) {
    let w = encryption::Witness {
        plaintext: random(r, blocks),
        key: Fr::random(r),
        opening: Fr::random(r),
    };
    let nonce = Fr::random(r);
    let x = encryption::Statement {
        ciphertext: encrypt(w.key, nonce, &w.plaintext),
        commitment: commit(&w.plaintext, w.opening),
        nonce,
    };
    (x, w)
}

fn pi_e_net(net: &Net<usize, encryption::Statement, encryption::Witness>) -> Vec<String> {
    type X = encryption::Statement;
    type W = encryption::Witness;
    let (x, w) = pi_e_instance(&mut rng(3700), 2);
    let case = |label: &str, s: usize, edit: &dyn Fn(&mut X, &mut W)| {
        let (mut cx, mut cw) = (x.clone(), w.clone());
        edit(&mut cx, &mut cw);
        (label.to_string(), s, cx, cw)
    };
    let cases = vec![
        case("honest", 2, &|_, _| {}),
        case("ciphertext blocks swapped", 2, &|x, _| {
            x.ciphertext.swap(0, 1)
        }),
        case("plaintext blocks swapped", 2, &|_, w| {
            w.plaintext.swap(0, 1)
        }),
        case("both swapped, recommitted", 2, &|x, w| {
            x.ciphertext.swap(0, 1);
            w.plaintext.swap(0, 1);
            x.commitment = commit(&w.plaintext, w.opening);
        }),
        case("nonce shifted", 2, &|x, _| x.nonce += Fr::ONE),
        case("nonce shifted, re-encrypted", 2, &|x, w| {
            x.nonce += Fr::ONE;
            x.ciphertext = encrypt(w.key, x.nonce, &w.plaintext);
        }),
        case("key shifted", 2, &|_, w| w.key += Fr::ONE),
        case("key shifted, re-encrypted", 2, &|x, w| {
            w.key += Fr::ONE;
            x.ciphertext = encrypt(w.key, x.nonce, &w.plaintext);
        }),
        case("opening shifted, recommitted", 2, &|x, w| {
            w.opening += Fr::ONE;
            x.commitment = commit(&w.plaintext, w.opening);
        }),
        case("one block more", 3, &|_, _| {}),
        case("one block fewer", 1, &|_, _| {}),
    ];
    let mut slots: Vec<Slot<X, W>> = vec![
        slot::<X, W>("c", |x, _| &mut x.commitment),
        slot::<X, W>("nonce", |x, _| &mut x.nonce),
        slot::<X, W>("k", |_, w| &mut w.key),
        slot::<X, W>("o", |_, w| &mut w.opening),
    ];
    for i in 0..2 {
        slots.push(slot::<X, W>(format!("ĉ{i}"), move |x, _| {
            &mut x.ciphertext[i]
        }));
        slots.push(slot::<X, W>(format!("m{i}"), move |_, w| {
            &mut w.plaintext[i]
        }));
    }
    run(net, &2, &x, &w, cases, slots)
}

#[test]
fn pi_e_matches_its_relation() {
    assert_clean("π_e", &pi_e_net(&PI_E));
}

// ------------------------------------------------------ π_t: duplication ---

const DUPLICATION: Net<usize, duplication::Statement, duplication::Witness> = Net {
    holds: |len, x, w| duplication::holds(*len, x, w),
    synth: |len, x, w| {
        DuplicationCircuit::new(*len).synthesize_builder(
            &w.data,
            &Commitment(x.source),
            &Opening(w.source_opening),
            &Commitment(x.derived),
            &Opening(w.derived_opening),
        )
    },
    statement: duplication::Statement::public_inputs,
    circuit_statement: |len, x| {
        DuplicationCircuit::new(*len).public_inputs(&Commitment(x.source), &Commitment(x.derived))
    },
    secrets: |w| {
        let mut s = w.data.clone();
        s.extend([w.source_opening, w.derived_opening]);
        s
    },
};

#[test]
fn duplication_matches_its_relation() {
    let mut r = rng(3701);
    let w = duplication::Witness {
        data: random(&mut r, 3),
        source_opening: Fr::random(&mut r),
        derived_opening: Fr::random(&mut r),
    };
    let x = duplication::Statement {
        source: commit(&w.data, w.source_opening),
        derived: commit(&w.data, w.derived_opening),
    };
    type X = duplication::Statement;
    type W = duplication::Witness;
    let case = |label: &str, s: usize, edit: &dyn Fn(&mut X, &mut W)| {
        let (mut cx, mut cw) = (x.clone(), w.clone());
        edit(&mut cx, &mut cw);
        (label.to_string(), s, cx, cw)
    };
    let cases = vec![
        case("honest", 3, &|_, _| {}),
        case("commitments swapped", 3, &|x, _| {
            std::mem::swap(&mut x.source, &mut x.derived)
        }),
        case("commitments and openings swapped", 3, &|x, w| {
            std::mem::swap(&mut x.source, &mut x.derived);
            std::mem::swap(&mut w.source_opening, &mut w.derived_opening);
        }),
        case("entries swapped", 3, &|_, w| w.data.swap(0, 2)),
        case("replica recommitted", 3, &|x, w| {
            w.derived_opening += Fr::ONE;
            x.derived = commit(&w.data, w.derived_opening);
        }),
        case("replica of other data", 3, &|x, w| {
            let mut other = w.data.clone();
            other[1] += Fr::ONE;
            x.derived = commit(&other, w.derived_opening);
        }),
        case("one entry more", 4, &|_, _| {}),
        case("one entry fewer", 2, &|_, _| {}),
    ];
    let mut slots: Vec<Slot<X, W>> = vec![
        slot::<X, W>("c_s", |x, _| &mut x.source),
        slot::<X, W>("c_d", |x, _| &mut x.derived),
        slot::<X, W>("o_s", |_, w| &mut w.source_opening),
        slot::<X, W>("o_d", |_, w| &mut w.derived_opening),
    ];
    for i in 0..3 {
        slots.push(slot::<X, W>(format!("s{i}"), move |_, w| &mut w.data[i]));
    }
    assert_clean(
        "π_t duplication",
        &run(&DUPLICATION, &3, &x, &w, cases, slots),
    );
}

// ------------------------------------------------------ π_t: aggregation ---

const AGGREGATION: Net<Vec<usize>, aggregation::Statement, aggregation::Witness> = Net {
    holds: |lens, x, w| aggregation::holds(lens, x, w),
    synth: |lens, x, w| {
        let commitments: Vec<_> = x
            .sources
            .iter()
            .zip(&w.source_openings)
            .map(|(c, o)| (Commitment(*c), Opening(*o)))
            .collect();
        AggregationCircuit::new(lens.clone()).synthesize_builder(
            &w.sources,
            &commitments,
            &Commitment(x.derived),
            &Opening(w.derived_opening),
        )
    },
    statement: aggregation::Statement::public_inputs,
    circuit_statement: |lens, x| {
        let sources: Vec<_> = x.sources.iter().map(|c| Commitment(*c)).collect();
        AggregationCircuit::new(lens.clone()).public_inputs(&Commitment(x.derived), &sources)
    },
    secrets: |w| {
        let mut s = w.sources.concat();
        s.push(w.derived_opening);
        s.extend(&w.source_openings);
        s
    },
};

#[test]
fn aggregation_matches_its_relation() {
    let mut r = rng(3702);
    let lens = vec![3, 2];
    let w = aggregation::Witness {
        sources: lens.iter().map(|n| random(&mut r, *n)).collect(),
        derived_opening: Fr::random(&mut r),
        source_openings: random(&mut r, 2),
    };
    let x = aggregation::Statement {
        derived: commit(&w.sources.concat(), w.derived_opening),
        sources: (0..2)
            .map(|k| commit(&w.sources[k], w.source_openings[k]))
            .collect(),
    };
    type X = aggregation::Statement;
    type W = aggregation::Witness;
    let case = |label: &str, s: Vec<usize>, edit: &dyn Fn(&mut X, &mut W)| {
        let (mut cx, mut cw) = (x.clone(), w.clone());
        edit(&mut cx, &mut cw);
        (label.to_string(), s, cx, cw)
    };
    let cases = vec![
        case("honest", vec![3, 2], &|_, _| {}),
        case("sources reordered", vec![2, 3], &|x, w| {
            w.sources.swap(0, 1);
            w.source_openings.swap(0, 1);
            x.sources.swap(0, 1);
        }),
        case(
            "sources reordered, aggregate recommitted",
            vec![2, 3],
            &|x, w| {
                w.sources.swap(0, 1);
                w.source_openings.swap(0, 1);
                x.sources.swap(0, 1);
                x.derived = commit(&w.sources.concat(), w.derived_opening);
            },
        ),
        case("entries swapped across sources", vec![3, 2], &|_, w| {
            let (a, b) = (w.sources[0][2], w.sources[1][0]);
            w.sources[0][2] = b;
            w.sources[1][0] = a;
        }),
        case("source commitments swapped", vec![3, 2], &|x, _| {
            x.sources.swap(0, 1)
        }),
        case("boundary moved", vec![4, 1], &|_, _| {}),
        case("one source dropped", vec![3], &|x, w| {
            w.sources.pop();
            w.source_openings.pop();
            x.sources.pop();
        }),
    ];
    let mut slots: Vec<Slot<X, W>> = vec![
        slot::<X, W>("c_d", |x, _| &mut x.derived),
        slot::<X, W>("o_d", |_, w| &mut w.derived_opening),
    ];
    for (k, len) in lens.iter().enumerate() {
        slots.push(slot::<X, W>(format!("c_s{k}"), move |x, _| {
            &mut x.sources[k]
        }));
        slots.push(slot::<X, W>(format!("o_s{k}"), move |_, w| {
            &mut w.source_openings[k]
        }));
        for i in 0..*len {
            slots.push(slot::<X, W>(format!("s{k}[{i}]"), move |_, w| {
                &mut w.sources[k][i]
            }));
        }
    }
    assert_clean(
        "π_t aggregation",
        &run(&AGGREGATION, &lens, &x, &w, cases, slots),
    );
}

// -------------------------------------------------------- π_t: partition ---

const PARTITION: Net<Vec<usize>, partition::Statement, partition::Witness> = Net {
    holds: |lens, x, w| partition::holds(lens, x, w),
    synth: |lens, x, w| {
        let parts: Vec<_> = x
            .parts
            .iter()
            .zip(&w.part_openings)
            .map(|(c, o)| (Commitment(*c), Opening(*o)))
            .collect();
        PartitionCircuit::new(lens.clone()).synthesize_builder(
            &w.source,
            &Commitment(x.source),
            &Opening(w.source_opening),
            &parts,
        )
    },
    statement: partition::Statement::public_inputs,
    circuit_statement: |lens, x| {
        let parts: Vec<_> = x.parts.iter().map(|c| Commitment(*c)).collect();
        PartitionCircuit::new(lens.clone()).public_inputs(&Commitment(x.source), &parts)
    },
    secrets: |w| {
        let mut s = w.source.clone();
        s.push(w.source_opening);
        s.extend(&w.part_openings);
        s
    },
};

#[test]
fn partition_matches_its_relation() {
    let mut r = rng(3703);
    let lens = vec![2, 3];
    let w = partition::Witness {
        source: random(&mut r, 5),
        source_opening: Fr::random(&mut r),
        part_openings: random(&mut r, 2),
    };
    let x = partition::Statement {
        source: commit(&w.source, w.source_opening),
        parts: vec![
            commit(&w.source[..2], w.part_openings[0]),
            commit(&w.source[2..], w.part_openings[1]),
        ],
    };
    type X = partition::Statement;
    type W = partition::Witness;
    let case = |label: &str, s: Vec<usize>, edit: &dyn Fn(&mut X, &mut W)| {
        let (mut cx, mut cw) = (x.clone(), w.clone());
        edit(&mut cx, &mut cw);
        (label.to_string(), s, cx, cw)
    };
    let cases = vec![
        case("honest", vec![2, 3], &|_, _| {}),
        case("boundary moved", vec![3, 2], &|_, _| {}),
        case("part commitments swapped", vec![2, 3], &|x, _| {
            x.parts.swap(0, 1)
        }),
        case(
            "entries swapped across the boundary",
            vec![2, 3],
            &|_, w| w.source.swap(1, 2),
        ),
        case(
            "entries swapped within a part, all recommitted",
            vec![2, 3],
            &|x, w| {
                w.source.swap(2, 4);
                x.source = commit(&w.source, w.source_opening);
                x.parts[1] = commit(&w.source[2..], w.part_openings[1]);
            },
        ),
        case("an empty part", vec![0, 5], &|x, w| {
            x.parts[0] = commit(&[], w.part_openings[0]);
            x.parts[1] = commit(&w.source, w.part_openings[1]);
        }),
        case("one part only", vec![5], &|x, w| {
            x.parts = vec![commit(&w.source, w.part_openings[0])];
            w.part_openings.pop();
        }),
    ];
    let mut slots: Vec<Slot<X, W>> = vec![
        slot::<X, W>("c_s", |x, _| &mut x.source),
        slot::<X, W>("o_s", |_, w| &mut w.source_opening),
    ];
    for k in 0..2 {
        slots.push(slot::<X, W>(format!("c_d{k}"), move |x, _| &mut x.parts[k]));
        slots.push(slot::<X, W>(format!("o_d{k}"), move |_, w| {
            &mut w.part_openings[k]
        }));
    }
    for i in 0..5 {
        slots.push(slot::<X, W>(format!("s{i}"), move |_, w| &mut w.source[i]));
    }
    assert_clean(
        "π_t partition",
        &run(&PARTITION, &lens, &x, &w, cases, slots),
    );
}

// ------------------------------------------------------------- π_p ---

type ValidationShape = (usize, usize);

const PI_P: Net<ValidationShape, validation::Statement, validation::Witness> = Net {
    holds: |(len, bits), x, w| validation::holds(*len, *bits, x, w),
    synth: |(len, bits), x, w| {
        ValidationCircuit::new(*len, RangePredicate { bits: *bits }).synthesize_builder(
            &w.data,
            &Commitment(x.commitment),
            &Opening(w.opening),
        )
    },
    statement: validation::Statement::public_inputs,
    circuit_statement: |(len, bits), x| {
        ValidationCircuit::new(*len, RangePredicate { bits: *bits })
            .public_inputs(&Commitment(x.commitment))
    },
    secrets: |w| {
        let mut s = w.data.clone();
        s.push(w.opening);
        s
    },
};

fn pi_p_net(net: &Net<ValidationShape, validation::Statement, validation::Witness>) -> Vec<String> {
    let mut r = rng(3704);
    // Distinct non-zero entries, one of them at the top of the 16-bit range.
    let mut data: Vec<Fr> = (0..3)
        .map(|i| Fr::from(r.gen_range(1u64..1 << 13) * 4 + i))
        .collect();
    data.push(Fr::from((1u64 << 16) - 1));
    let w = validation::Witness {
        data,
        opening: Fr::random(&mut r),
    };
    let x = validation::Statement {
        commitment: commit(&w.data, w.opening),
    };
    type X = validation::Statement;
    type W = validation::Witness;
    let case = |label: String, s: ValidationShape, edit: &dyn Fn(&mut X, &mut W)| {
        let (mut cx, mut cw) = (x.clone(), w.clone());
        edit(&mut cx, &mut cw);
        (label, s, cx, cw)
    };
    let mut cases = vec![
        case("honest".into(), (4, 16), &|_, _| {}),
        case("bit width − 1".into(), (4, 15), &|_, _| {}),
        case("bit width + 1".into(), (4, 17), &|_, _| {}),
        case("entries swapped".into(), (4, 16), &|_, w| w.data.swap(0, 3)),
        case("entries swapped, recommitted".into(), (4, 16), &|x, w| {
            w.data.swap(0, 3);
            x.commitment = commit(&w.data, w.opening);
        }),
        case("one entry more".into(), (5, 16), &|_, _| {}),
    ];
    for i in 0..4 {
        cases.push(case(
            format!("entry {i} at 2^bits, recommitted"),
            (4, 16),
            &|x, w| {
                w.data[i] = Fr::from(1u64 << 16);
                x.commitment = commit(&w.data, w.opening);
            },
        ));
    }
    let mut slots: Vec<Slot<X, W>> = vec![
        slot::<X, W>("c_d", |x, _| &mut x.commitment),
        slot::<X, W>("o_d", |_, w| &mut w.opening),
    ];
    for i in 0..4 {
        slots.push(slot::<X, W>(format!("d{i}"), move |_, w| &mut w.data[i]));
    }
    run(net, &(4, 16), &x, &w, cases, slots)
}

#[test]
fn pi_p_matches_its_relation() {
    assert_clean("π_p", &pi_p_net(&PI_P));
}

// ------------------------------------------------------------- π_k ---

const PI_K: Net<(), key_negotiation::Statement, key_negotiation::Witness> = Net {
    holds: |_, x, w| key_negotiation::holds(x, w),
    synth: |_, x, w| {
        KeyNegotiationCircuit.synthesize_builder(
            w.key,
            w.buyer_key,
            &Commitment(x.commitment),
            &Opening(w.opening),
        )
    },
    statement: key_negotiation::Statement::public_inputs,
    circuit_statement: |_, x| {
        KeyNegotiationCircuit::public_inputs(
            x.blinded_key,
            &Commitment(x.commitment),
            x.buyer_key_hash,
        )
    },
    secrets: |w| vec![w.key, w.buyer_key, w.opening],
};

fn pi_k_statement(w: &key_negotiation::Witness) -> key_negotiation::Statement {
    key_negotiation::Statement {
        blinded_key: w.key + w.buyer_key,
        commitment: commit(&[w.key], w.opening),
        buyer_key_hash: Poseidon::hash(&[w.buyer_key]),
    }
}

fn pi_k_net(net: &Net<(), key_negotiation::Statement, key_negotiation::Witness>) -> Vec<String> {
    let mut r = rng(3705);
    let w = key_negotiation::Witness {
        key: Fr::random(&mut r),
        buyer_key: Fr::random(&mut r),
        opening: Fr::random(&mut r),
    };
    let x = pi_k_statement(&w);
    type X = key_negotiation::Statement;
    type W = key_negotiation::Witness;
    let case = |label: &str, edit: &dyn Fn(&mut X, &mut W)| {
        let (mut cx, mut cw) = (x.clone(), w.clone());
        edit(&mut cx, &mut cw);
        (label.to_string(), (), cx, cw)
    };
    let cases = vec![
        case("honest", &|_, _| {}),
        case("k_c off by one", &|x, _| x.blinded_key += Fr::ONE),
        case("h_v of k", &|x, w| {
            x.buyer_key_hash = Poseidon::hash(&[w.key])
        }),
        case("k and k_v swapped", &|_, w| {
            std::mem::swap(&mut w.key, &mut w.buyer_key)
        }),
        case("k and k_v swapped, statement recomputed", &|x, w| {
            std::mem::swap(&mut w.key, &mut w.buyer_key);
            *x = pi_k_statement(w);
        }),
        case("buyer key shifted, statement recomputed", &|x, w| {
            w.buyer_key += Fr::ONE;
            *x = pi_k_statement(w);
        }),
        case("commitment to k_v", &|x, w| {
            x.commitment = commit(&[w.buyer_key], w.opening)
        }),
    ];
    let slots: Vec<Slot<X, W>> = vec![
        slot::<X, W>("k_c", |x, _| &mut x.blinded_key),
        slot::<X, W>("c", |x, _| &mut x.commitment),
        slot::<X, W>("h_v", |x, _| &mut x.buyer_key_hash),
        slot::<X, W>("k", |_, w| &mut w.key),
        slot::<X, W>("k_v", |_, w| &mut w.buyer_key),
        slot::<X, W>("o", |_, w| &mut w.opening),
    ];
    run(net, &(), &x, &w, cases, slots)
}

#[test]
fn pi_k_matches_its_relation() {
    assert_clean("π_k", &pi_k_net(&PI_K));
}

// ------------------------------------------------ seeded wrong circuits ---

/// What every other suite checks of a circuit: its own sample is
/// satisfied, the analyzer finds nothing at `warning`, and the structure
/// does not depend on the witness.
fn passes_todays_checks(sample: impl Fn(&mut StdRng) -> CircuitBuilder) -> bool {
    let a = sample(&mut rng(1));
    let b = sample(&mut rng(2));
    let lint_clean = !analyze(&a)
        .findings
        .iter()
        .any(|f| f.gates(Severity::Warning));
    lint_clean && structural_digest(&a) == structural_digest(&b) && a.build().is_satisfied()
}

/// π_e whose CTR counter starts at `nonce + 1`: a self-consistent
/// encryption, but not the scheme's.
fn pi_e_counter_off_by_one(
    blocks: &usize,
    x: &encryption::Statement,
    w: &encryption::Witness,
) -> CircuitBuilder {
    assert_eq!(w.plaintext.len(), *blocks);
    assert_eq!(x.ciphertext.len(), *blocks);
    let mut b = CircuitBuilder::new();
    let ct_pub: Vec<_> = x.ciphertext.iter().map(|c| b.public_input(*c)).collect();
    let c_pub = b.public_input(x.commitment);
    let nonce_pub = b.public_input(x.nonce);
    let m: Vec<_> = w.plaintext.iter().map(|v| b.alloc(*v)).collect();
    let k = b.alloc(w.key);
    let o = b.alloc(w.opening);
    let counter = b.add_const(nonce_pub, Fr::ONE);
    for (computed, public) in mimc_ctr_encrypt(&mut b, k, counter, &m).iter().zip(&ct_pub) {
        b.assert_equal(*computed, *public);
    }
    let c = poseidon_commit(&mut b, &m, o);
    b.assert_equal(c, c_pub);
    b
}

#[test]
fn a_pi_e_with_a_shifted_counter_fails_the_net() {
    assert!(passes_todays_checks(|r| {
        let (mut x, w) = pi_e_instance(r, 2);
        x.ciphertext = encrypt(w.key, x.nonce + Fr::ONE, &w.plaintext);
        pi_e_counter_off_by_one(&2, &x, &w)
    }));
    let wrong = Net {
        synth: pi_e_counter_off_by_one,
        ..PI_E
    };
    let bad = pi_e_net(&wrong);
    assert!(bad.iter().any(|l| l.contains("`honest`")), "{bad:?}");
}

/// π_p whose range check skips the last entry.
fn pi_p_last_entry_unchecked(
    (len, bits): &ValidationShape,
    x: &validation::Statement,
    w: &validation::Witness,
) -> CircuitBuilder {
    assert_eq!(w.data.len(), *len);
    let mut b = CircuitBuilder::new();
    let c_pub = b.public_input(x.commitment);
    let d: Vec<_> = w.data.iter().map(|v| b.alloc(*v)).collect();
    let o = b.alloc(w.opening);
    let c = poseidon_commit(&mut b, &d, o);
    b.assert_equal(c, c_pub);
    for entry in &d[..len - 1] {
        assert_range(&mut b, *entry, *bits);
    }
    b
}

#[test]
fn a_pi_p_that_skips_an_entry_fails_the_net() {
    assert!(passes_todays_checks(|r| {
        let data: Vec<Fr> = (0..4).map(|_| Fr::from(r.gen::<u16>() as u64)).collect();
        let (c, o) = CommitmentScheme::commit(&data, r);
        let x = validation::Statement { commitment: c.0 };
        let w = validation::Witness { data, opening: o.0 };
        pi_p_last_entry_unchecked(&(4, 16), &x, &w)
    }));
    let wrong = Net {
        synth: pi_p_last_entry_unchecked,
        ..PI_P
    };
    let bad = pi_p_net(&wrong);
    assert!(
        bad.iter().any(|l| l.contains("entry 3 at 2^bits")),
        "{bad:?}"
    );
    assert!(bad.iter().any(|l| l.contains("bit width − 1")), "{bad:?}");
}

/// π_k that takes the buyer's key as a public input.
fn pi_k_buyer_key_public(
    _: &(),
    x: &key_negotiation::Statement,
    w: &key_negotiation::Witness,
) -> CircuitBuilder {
    let mut b = CircuitBuilder::new();
    let k_c = b.public_input(x.blinded_key);
    let c_pub = b.public_input(x.commitment);
    let h_pub = b.public_input(x.buyer_key_hash);
    let k = b.alloc(w.key);
    let k_v = b.public_input(w.buyer_key);
    let o = b.alloc(w.opening);
    let c = poseidon_commit(&mut b, &[k], o);
    b.assert_equal(c, c_pub);
    let h = poseidon_hash(&mut b, &[k_v]);
    b.assert_equal(h, h_pub);
    let sum = b.add(k, k_v);
    b.assert_equal(sum, k_c);
    b
}

#[test]
fn a_pi_k_that_publishes_the_buyer_key_fails_the_net() {
    assert!(passes_todays_checks(|r| {
        let w = key_negotiation::Witness {
            key: Fr::random(r),
            buyer_key: Fr::random(r),
            opening: Fr::random(r),
        };
        pi_k_buyer_key_public(&(), &pi_k_statement(&w), &w)
    }));
    let wrong = Net {
        synth: pi_k_buyer_key_public,
        ..PI_K
    };
    let bad = pi_k_net(&wrong);
    assert!(
        bad.iter().any(|l| l.contains("exposes 4 public inputs")),
        "{bad:?}"
    );
    assert!(
        bad.iter().any(|l| l.contains("witness-only value")),
        "{bad:?}"
    );
}
