// Command trainbench regenerates the evaluation and runs the
// repository's gates, one experiment per invocation: -fig names a row
// of bench.Experiments (`-fig help` lists them with what each shows),
// the other flags are the row's arguments (bench.Opts), and the exit
// status is the row's gate — non-zero when it returns an error.
package main

import (
	"flag"
	"fmt"
	"os"

	"dfccl/internal/bench"
)

func main() {
	var o bench.Opts
	fig := flag.String("fig", "10", "experiment to run: "+bench.Names()+"; help lists what each shows")
	o.Flags(flag.CommandLine)
	flag.Parse()
	if err := bench.Run(os.Stdout, *fig, o); err != nil {
		fmt.Fprintln(os.Stderr, "trainbench:", err)
		os.Exit(1)
	}
}
