// Command tables regenerates Table I: the per-node capacity and optimal
// transmission range in every mobility regime, with measured scaling
// exponents fitted from n-sweeps next to the theoretical orders.
//
// Example:
//
//	tables            # full sweep (about 2 s on 2 CPUs)
//	tables -quick     # small sweep (seconds)
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridcap/internal/cli"
	"hybridcap/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run() error {
	common := cli.Bind(flag.CommandLine)
	flag.Parse()
	rt := common.Runtime()
	opts := common.Options()
	opts.Obs = rt
	res, err := experiments.Table1(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.Text())
	if err := res.WriteFiles(common.Out); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s/T1.{txt,csv}\n", common.Out)
	return common.WriteObs(rt)
}
