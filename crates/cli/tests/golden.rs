//! The deterministic commands' full output, byte for byte. A golden file
//! changes only with an intended change to what the command prints.

#[test]
fn deterministic_output_matches_the_goldens() {
    for (args, golden) in [
        ("simulate --seed 7", include_str!("golden/simulate.txt")),
        (
            "simulate --seed 7 --json",
            include_str!("golden/simulate.json"),
        ),
        ("chaos --seed 7", include_str!("golden/chaos.txt")),
        ("chaos --seed 7 --json", include_str!("golden/chaos.json")),
        ("wakeup", include_str!("golden/wakeup.txt")),
        ("efficiency", include_str!("golden/efficiency.txt")),
    ] {
        let argv: Vec<String> = args.split(' ').map(str::to_string).collect();
        let out = oddci_cli::run(&argv).expect("valid arguments");
        assert_eq!(out, golden, "`oddci {args}` drifted from its golden");
    }
}
