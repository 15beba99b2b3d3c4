//! Property-based tests for the MCU toolchain and core: random programs
//! round-trip through assembler and disassembler, and the ALU agrees with
//! an arithmetic oracle.

use picocube_mcu::{asm, disasm, FlatMemory, FloatingBus, Mcu, StepResult};
use proptest::prelude::*;

/// Strategy for one random (valid) instruction in assembler syntax, using
/// only encodings the disassembler renders canonically.
fn instruction() -> impl Strategy<Value = String> {
    let reg = (4u8..=15).prop_map(|r| format!("r{r}"));
    let src = prop_oneof![
        reg.clone(),
        (4u8..=15).prop_map(|r| format!("@r{r}")),
        (4u8..=15).prop_map(|r| format!("@r{r}+")),
        (0x0200u16..0x0400).prop_map(|a| format!("&{a:#06x}")),
        // Immediates outside the constant-generator set keep one canonical
        // encoding (the CG values also round-trip, tested separately).
        (0x0010u16..0xFFF0)
            .prop_filter("non-cg", |v| ![0, 1, 2, 4, 8, 0xFFFF].contains(v))
            .prop_map(|v| format!("#{v:#06x}")),
        ((2u16..200), (4u8..=15)).prop_map(|(x, r)| format!("{:#06x}(r{})", x * 2, r)),
    ];
    let dst = prop_oneof![
        reg,
        (0x0200u16..0x0400).prop_map(|a| format!("&{a:#06x}")),
        ((2u16..200), (4u8..=15)).prop_map(|(x, r)| format!("{:#06x}(r{})", x * 2, r)),
    ];
    let two_op = prop_oneof![
        Just("mov"),
        Just("add"),
        Just("addc"),
        Just("sub"),
        Just("subc"),
        Just("cmp"),
        Just("bit"),
        Just("bic"),
        Just("bis"),
        Just("xor"),
        Just("and"),
    ];
    let one_op = prop_oneof![Just("rrc"), Just("rra"), Just("swpb"), Just("push")];
    prop_oneof![
        (two_op, prop::bool::ANY, src.clone(), dst).prop_map(|(m, byte, s, d)| {
            let suffix = if byte { ".b" } else { "" };
            format!("{m}{suffix} {s}, {d}")
        }),
        (one_op, src).prop_map(|(m, s)| format!("{m} {s}")),
    ]
}

/// Strategy for one line of hostile assembler source: a mnemonic,
/// directive or label, then a run of operand fragments with unbalanced
/// parentheses, unknown registers, out-of-range numbers and stray
/// punctuation.
fn hostile_line() -> impl Strategy<Value = String> {
    let head = prop_oneof![
        Just("mov"),
        Just("add.b"),
        Just("push"),
        Just("call"),
        Just("jnz"),
        Just("reti"),
        Just("pop"),
        Just("bogus"),
        Just("lbl:"),
        Just(".org"),
        Just(".word"),
        Just(".byte"),
        Just(".equ"),
        Just(".vector"),
        Just(".org 0xFFFF\n.word"),
        Just(".org 0xFFFF\nmov"),
        Just(".org 0xFFFE\n.byte"),
    ];
    let fragment = prop_oneof![
        Just("r4"),
        Just("r16"),
        Just("rx"),
        Just("pc"),
        Just("sr"),
        Just("@r3+"),
        Just("@pc+"),
        Just("@"),
        Just("&"),
        Just("#"),
        Just("#65536"),
        Just("#0x10000"),
        Just("-99999"),
        Just("0x"),
        Just("'"),
        Just("("),
        Just(")"),
        Just(")("),
        Just("4(r5"),
        Just("+"),
        Just("|"),
        Just(","),
        Just(" "),
        Just("lbl"),
        Just("NOPE"),
        Just("reset"),
    ];
    (head, prop::collection::vec(fragment, 0..7))
        .prop_map(|(head, fragments)| format!("{head} {}", fragments.concat()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn hostile_sources_assemble_or_fail_on_a_line(
        lines in prop::collection::vec(hostile_line(), 1..6)
    ) {
        let src = lines.join("\n");
        if let Err(e) = asm::assemble(&src) {
            let count = src.lines().count();
            prop_assert!((1..=count).contains(&e.line), "{e} for {src:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_round_trip_through_the_toolchain(
        instructions in prop::collection::vec(instruction(), 1..40)
    ) {
        let mut src = String::from(".org 0xF000\n");
        for i in &instructions {
            src.push_str(i);
            src.push('\n');
        }
        let image = asm::assemble(&src).expect("generated program assembles");
        let code = image.segments().iter().find(|(org, _)| *org == 0xF000).unwrap();
        let mut mem = FlatMemory::new();
        mem.load(&image);
        let (listing, err) = disasm::disassemble_range(&mem, 0xF000, code.1.len() as u16);
        prop_assert!(err.is_none(), "disassembly failed: {err:?}");
        let rebuilt = asm::assemble(&disasm::to_source(&listing)).expect("listing reassembles");
        let rebuilt_code = rebuilt.segments().iter().find(|(org, _)| *org == 0xF000).unwrap();
        prop_assert_eq!(&rebuilt_code.1, &code.1, "round trip must be bit exact");
    }

    #[test]
    fn alu_add_matches_oracle(a in any::<u16>(), b in any::<u16>()) {
        let src = format!(
            ".org 0xF000\nstart: mov #{a:#06x}, r4\nadd #{b:#06x}, r4\nhalt: jmp halt\n.vector reset, start\n"
        );
        let image = asm::assemble(&src).unwrap();
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        for _ in 0..2 {
            let ran = matches!(mcu.step(&mut FloatingBus), StepResult::Ran { .. });
            prop_assert!(ran);
        }
        prop_assert_eq!(mcu.register(4), a.wrapping_add(b));
        // Carry flag mirrors the 17th bit.
        let carry = (u32::from(a) + u32::from(b)) > 0xFFFF;
        prop_assert_eq!(mcu.register(2) & 1 != 0, carry);
        // Zero flag mirrors the result.
        prop_assert_eq!(mcu.register(2) & 2 != 0, a.wrapping_add(b) == 0);
    }

    #[test]
    fn alu_sub_and_cmp_agree(a in any::<u16>(), b in any::<u16>()) {
        // CMP must set the same flags SUB does, without writing the result.
        let src_sub = format!(
            ".org 0xF000\nstart: mov #{a:#06x}, r4\nsub #{b:#06x}, r4\nhalt: jmp halt\n.vector reset, start\n"
        );
        let src_cmp = format!(
            ".org 0xF000\nstart: mov #{a:#06x}, r4\ncmp #{b:#06x}, r4\nhalt: jmp halt\n.vector reset, start\n"
        );
        let run = |src: &str| {
            let image = asm::assemble(src).unwrap();
            let mut mcu = Mcu::new();
            mcu.load(&image);
            mcu.reset();
            for _ in 0..2 {
                assert!(matches!(mcu.step(&mut FloatingBus), StepResult::Ran { .. }));
            }
            (mcu.register(4), mcu.register(2))
        };
        let (sub_result, sub_flags) = run(&src_sub);
        let (cmp_result, cmp_flags) = run(&src_cmp);
        prop_assert_eq!(sub_result, a.wrapping_sub(b));
        prop_assert_eq!(cmp_result, a, "cmp must not write back");
        prop_assert_eq!(sub_flags & 0x0107, cmp_flags & 0x0107, "C/Z/N/V must agree");
    }

    #[test]
    fn logic_ops_match_oracle(a in any::<u16>(), b in any::<u16>()) {
        for (mn, expect) in [("bis", a | b), ("bic", a & !b), ("xor", a ^ b), ("and", a & b)] {
            let src = format!(
                ".org 0xF000\nstart: mov #{a:#06x}, r4\n{mn} #{b:#06x}, r4\nhalt: jmp halt\n.vector reset, start\n"
            );
            let image = asm::assemble(&src).unwrap();
            let mut mcu = Mcu::new();
            mcu.load(&image);
            mcu.reset();
            for _ in 0..2 {
                let ran = matches!(mcu.step(&mut FloatingBus), StepResult::Ran { .. });
            prop_assert!(ran);
            }
            prop_assert_eq!(mcu.register(4), expect, "{} failed", mn);
        }
    }

    #[test]
    fn swpb_sxt_push_pop_oracle(v in any::<u16>()) {
        let src = format!(
            ".org 0xF000\nstart: mov #0x0A00, sp\nmov #{v:#06x}, r4\npush r4\nswpb r4\npop r5\nhalt: jmp halt\n.vector reset, start\n"
        );
        let image = asm::assemble(&src).unwrap();
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        for _ in 0..5 {
            let ran = matches!(mcu.step(&mut FloatingBus), StepResult::Ran { .. });
            prop_assert!(ran);
        }
        prop_assert_eq!(mcu.register(4), v.rotate_left(8));
        prop_assert_eq!(mcu.register(5), v, "push/pop must round trip");
    }

    #[test]
    fn memory_word_round_trip_through_cpu(addr in (0x0200u16..0x03FE), v in any::<u16>()) {
        let addr = addr & !1;
        let src = format!(
            ".org 0xF000\nstart: mov #{v:#06x}, &{addr:#06x}\nmov &{addr:#06x}, r5\nhalt: jmp halt\n.vector reset, start\n"
        );
        let image = asm::assemble(&src).unwrap();
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        for _ in 0..2 {
            let ran = matches!(mcu.step(&mut FloatingBus), StepResult::Ran { .. });
            prop_assert!(ran);
        }
        prop_assert_eq!(mcu.register(5), v);
        prop_assert_eq!(mcu.read_mem16(addr), v);
    }
}
