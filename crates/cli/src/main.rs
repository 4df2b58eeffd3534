//! The `oddci` command-line tool. All logic lives in the library crate so
//! it is testable; this binary only shuttles argv/stdout/exit codes.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match oddci_cli::execute(&argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.exit_code());
        }
    }
}
