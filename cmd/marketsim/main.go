// Command marketsim is the repository's one simulation command. It has
// four subcommands:
//
//	marketsim soak     soak the market through the scenario catalog
//	marketsim figures  regenerate the paper's figures and tables
//	marketsim clear    run one clock auction over bids in the bid language
//	marketsim gen      emit a synthetic bid population in the bid language
//
// gen's output is clear's input:
//
//	marketsim gen -seed 7 | marketsim clear
//
// Each subcommand's -h lists its flags. A missing or unknown subcommand,
// a bad flag or a failed run exits 1; soak adds its own exit code 2
// (an invariant broke).
package main

import (
	"fmt"
	"io"
	"os"
)

const (
	exitOK        = 0
	exitUsage     = 1
	exitInvariant = 2
)

const usage = `usage: marketsim <subcommand> [flags]

subcommands:
  soak     soak the market through the scenario catalog (exit 2: invariant broken)
  figures  regenerate the paper's figures and tables
  clear    run one clock auction over bid-language bids (a file, or stdin)
  gen      emit a synthetic bid population in the bid language
`

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return exitUsage
	}
	switch args[0] {
	case "soak":
		return runSoak(args[1:], stdout, stderr)
	case "figures":
		return runFigures(args[1:], stdout, stderr)
	case "clear":
		return runClear(args[1:], stdin, stdout, stderr)
	case "gen":
		return runGen(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "marketsim: unknown subcommand %q\n%s", args[0], usage)
	return exitUsage
}

// noArgs rejects positional arguments left after a subcommand's flags.
func noArgs(name string, args []string, stderr io.Writer) bool {
	if len(args) == 0 {
		return true
	}
	fmt.Fprintf(stderr, "marketsim %s: unexpected argument %q\n", name, args[0])
	return false
}
