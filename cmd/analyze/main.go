// Command analyze prints a complete schedulability-analysis report for a
// task-system JSON file: per-task model quantities, the FEDCONS verdict under
// every configuration, every baseline's verdict, the minimum platform each
// needs, and (optionally) the system's demand-bound curves.
//
// Usage:
//
//	analyze [-minm] [-dbf horizon] system.json
//	analyze -example1              # the paper's Example 1 DAG task
//	analyze -example2 n            # the paper's Example 2 family at size n
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fedsched/internal/baseline"
	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/dbf"
	"fedsched/internal/partition"
	"fedsched/internal/service"
	"fedsched/internal/task"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		minm     = fs.Bool("minm", false, "search for the minimum platform size each method needs (up to 256)")
		dbfH     = fs.Int64("dbf", 0, "if > 0, dump Σ DBF and Σ DBF* curves up to this horizon as CSV")
		policy   = fs.String("policy", "fedcons", "also report this admission policy's verdict: fedcons (no extra row), semi, reservation or typed")
		mtypesF  = fs.String("m-types", "", "typed platform for the -policy=typed row, e.g. a:4,b:4 (must sum to the system's processor count)")
		example  bool
		example2 = fs.Int("example2", 0, "analyze the paper's Example 2 family at this size n instead of a file")
	)
	fs.BoolVar(&example, "example1", false, "analyze the paper's Example 1 system instead of a file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := service.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	mtypes, err := service.ParseMTypes(*mtypesF)
	if err != nil {
		return err
	}
	if mtypes != nil && pol != core.PolicyTyped {
		return fmt.Errorf("-m-types requires -policy=typed")
	}

	var sf *task.SystemFile
	switch {
	case example && *example2 > 0:
		return fmt.Errorf("-example1 and -example2 are mutually exclusive")
	case example:
		sf = &task.SystemFile{
			Processors: 1,
			Tasks:      task.System{task.MustNew("tau1", dag.Example1(), dag.Example1D, dag.Example1T)},
		}
	case *example2 > 0:
		sf = example2System(*example2)
	default:
		if fs.NArg() != 1 {
			return fmt.Errorf("expected exactly one input file (or -example1 / -example2 n)")
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		sf, err = task.DecodeSystem(data)
		if err != nil {
			return err
		}
	}
	sys, m := sf.Tasks, sf.Processors

	// --- Per-task table. ---
	fmt.Fprintf(out, "task model (m = %d):\n", m)
	fmt.Fprintf(out, "%-12s %5s %5s %7s %7s %6s %7s %7s %7s %7s %-6s\n",
		"name", "|V|", "|E|", "vol", "len", "width", "D", "T", "δ", "u", "class")
	for _, tk := range sys {
		fmt.Fprintf(out, "%-12s %5d %5d %7d %7d %6d %7d %7d %7.3f %7.3f %-6s\n",
			tk.Name, tk.G.N(), tk.G.M(), tk.Volume(), tk.Len(), tk.G.Width(),
			tk.D, tk.T, tk.Density(), tk.Utilization(), class(tk))
	}
	fmt.Fprintf(out, "U_sum = %.3f  Σδ = %.3f  constrained=%v implicit=%v\n\n",
		sys.USum(), sys.DensitySum(), sys.Constrained(), sys.Implicit())

	// --- MINPROCS sizing for high-density tasks. ---
	high, _ := sys.SplitByDensity()
	if len(high) > 0 {
		fmt.Fprintln(out, "MINPROCS sizing (budget = m):")
		for _, tk := range high {
			muS, tmplS, okS := core.Minprocs(tk, m, nil)
			muA, _, okA := core.MinprocsAnalytic(tk, m, nil)
			fmt.Fprintf(out, "  %-12s scan: %s  analytic: %s",
				tk.Name, muOrInf(muS, okS), muOrInf(muA, okA))
			if okS {
				fmt.Fprintf(out, "  (template makespan %d, window %d)", tmplS.Makespan, core.Window(tk))
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintln(out)
	}

	// --- Verdicts. ---
	type method struct {
		name string
		test func(task.System, int) bool
	}
	methods := []method{
		{"NECESSARY (upper bound)", baseline.Necessary},
		{"FEDCONS (paper)", func(s task.System, mm int) bool { return core.Schedulable(s, mm, core.Options{}) }},
		{"FEDCONS analytic sizing", func(s task.System, mm int) bool {
			return core.Schedulable(s, mm, core.Options{Minprocs: core.Analytic})
		}},
		{"FEDCONS exact-EDF bins", func(s task.System, mm int) bool {
			return core.Schedulable(s, mm, core.Options{Partition: partition.Options{Test: partition.ExactEDF}})
		}},
		{"FEDCONS DM-RTA bins", func(s task.System, mm int) bool {
			return core.Schedulable(s, mm, core.Options{Partition: partition.Options{Test: partition.DMRta}})
		}},
		{"LI-FED-D", baseline.LiFedD},
		{"LI-FED (implicit only)", baseline.LiFed},
		{"PART-SEQ", baseline.PartSeq},
	}
	if pol != "" {
		// Appended, not inserted, so the default table stays byte-identical.
		label := "SEMI-FED (Jiang et al.)"
		switch pol {
		case core.PolicyReservation:
			label = "RESERVATION (Ueter et al.)"
		case core.PolicyTyped:
			label = "TYPED (Han et al.)"
			if mtypes != nil {
				label = fmt.Sprintf("TYPED (%s)", core.FormatMTypes(mtypes))
			}
		}
		methods = append(methods, method{label, func(s task.System, mm int) bool {
			opt := core.Options{Policy: pol}
			// The declared budgets only fit the declared platform; a -minm
			// probe at a different size falls back to a single-type platform.
			if sumInts(mtypes) == mm {
				opt.MTypes = mtypes
			}
			return core.Schedulable(s, mm, opt)
		}})
	}
	fmt.Fprintln(out, "verdicts:")
	for _, mt := range methods {
		line := fmt.Sprintf("  %-26s %v", mt.name, verdict(mt.test(sys, m)))
		if *minm {
			line += fmt.Sprintf("   min m = %s", minMString(sys, mt.test))
		}
		fmt.Fprintln(out, line)
	}

	// --- Demand curves. ---
	if *dbfH > 0 {
		set := dbf.AsSporadics(sys)
		fmt.Fprintln(out, "\nt,total_dbf,total_dbf_star")
		seen := map[task.Time]bool{}
		for _, s := range set {
			for t := s.D; t <= *dbfH; t += s.T {
				seen[t] = true
			}
		}
		var points []task.Time
		for t := range seen {
			points = append(points, t)
		}
		sortTimes(points)
		for _, t := range points {
			star, _ := dbf.TotalApproxRat(set, t).Float64()
			fmt.Fprintf(out, "%d,%d,%.3f\n", t, dbf.TotalDBF(set, t), star)
		}
	}
	return nil
}

// example2System builds the paper's Example 2 family at size n: n singleton
// tasks with C = 1, D = 1, T = n. Each has density 1 — high-density by the
// paper's classification — so federated approaches dedicate one processor per
// task even though total utilization is exactly 1. The platform is sized at n
// so FEDCONS accepts and the capacity loss is visible in the -minm column.
func example2System(n int) *task.SystemFile {
	sys := make(task.System, 0, n)
	for i := 0; i < n; i++ {
		sys = append(sys, task.MustNew(fmt.Sprintf("tau%d", i+1), dag.Singleton(1), 1, task.Time(n)))
	}
	return &task.SystemFile{Processors: n, Tasks: sys}
}

func class(tk *task.DAGTask) string {
	if tk.HighDensity() {
		return "HIGH"
	}
	return "low"
}

func verdict(ok bool) string {
	if ok {
		return "SCHEDULABLE"
	}
	return "unschedulable"
}

func muOrInf(mu int, ok bool) string {
	if !ok {
		return "∞"
	}
	return fmt.Sprint(mu)
}

func minMString(sys task.System, test func(task.System, int) bool) string {
	for m := 1; m <= 256; m++ {
		if test(sys, m) {
			return fmt.Sprint(m)
		}
	}
	return ">256"
}

func sumInts(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

func sortTimes(ts []task.Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
