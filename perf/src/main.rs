fn main() -> std::process::ExitCode {
    perf::cli::main()
}
