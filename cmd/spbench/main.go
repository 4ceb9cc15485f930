// Command spbench regenerates the paper's tables and figures as text
// artifacts.
//
// Usage:
//
//	spbench -list                 # enumerate experiments
//	spbench -fig fig7             # run one experiment
//	spbench -all                  # run everything
//	spbench -fig fig12 -o out.txt # write to a file
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"switchpointer/internal/experiments"
)

func main() {
	var (
		list = flag.Bool("list", false, "list available experiments")
		fig  = flag.String("fig", "", "run a single experiment by ID (e.g. fig7)")
		all  = flag.Bool("all", false, "run every experiment")
		out  = flag.String("o", "", "write output to a file instead of stdout")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	switch {
	case *list:
		for _, e := range experiments.Registry() {
			fmt.Fprintf(w, "%-20s %s\n", e.ID, e.Desc)
		}
	case *fig != "":
		entry, err := experiments.Find(*fig)
		if err != nil {
			fatal(err)
		}
		runOne(w, entry)
	case *all:
		for _, e := range experiments.Registry() {
			runOne(w, e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(w *os.File, e experiments.Entry) {
	start := time.Now()
	res, err := e.Run()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", e.ID, err))
	}
	fmt.Fprint(w, res.Render())
	fmt.Fprintf(w, "(regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spbench:", err)
	os.Exit(1)
}
