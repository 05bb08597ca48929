package bench

import (
	"errors"
	"fmt"
	"slices"

	"armci"
)

// Args is what the command line can say about an experiment; each one
// maps the parts that apply to it onto its own options.
type Args struct {
	Opts
	Procs []int    // -procs: the sweep, or (its last value) the cluster size
	Iters int      // -iters
	Specs []string // -workload
}

// size is the cluster size -procs asks for, 0 for the default.
func (a Args) size() int {
	if len(a.Procs) == 0 {
		return 0
	}
	return a.Procs[len(a.Procs)-1]
}

// Experiment is one row of the registry: everything the command line,
// the baseline gate and the golden tests know about a figure.
type Experiment struct {
	// Name is the -fig value; Aliases select the same experiment.
	Name    string
	Aliases []string
	// SimOnly experiments measure deterministic virtual times and are
	// skipped on every other fabric.
	SimOnly bool
	// OwnSweep experiments read -procs only when run alone: under -fig
	// all the list is the small figures' sweep and they keep their own.
	OwnSweep bool
	// Proc, when set, runs the experiment across OS processes (-fabric
	// proc); worker(n) is the argv of one worker of an n-rank point.
	Proc func(a Args, worker func(n int) []string) (*Table, error)

	body func(Args) (*Table, error)
	// gate is the sweep the baseline gate runs (nil: not gated); floor,
	// if set, is a structural claim the gated table must meet before a
	// baseline may be written.
	gate  *Args
	floor func(*Table) error
}

// ErrSimOnly is Run's answer for a SimOnly experiment on another fabric.
var ErrSimOnly = errors.New("measures deterministic virtual times; sim fabric only")

// Run executes the experiment as the command line describes it.
func (e *Experiment) Run(a Args) (*Table, error) {
	if e.SimOnly && a.Fabric != armci.FabricSim {
		return nil, ErrSimOnly
	}
	return e.body(a)
}

// Experiments is the registry, in the order -fig all prints it.
var Experiments = []Experiment{
	{Name: "7", Proc: Fig7Proc, gate: &Args{Procs: []int{2, 4, 8, 16}},
		body: func(a Args) (*Table, error) {
			r, err := Fig7(Fig7Opts{Opts: a.Opts, ProcCounts: a.Procs})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{Name: "8", Aliases: []string{"9", "10", "lock"}, gate: &Args{Procs: []int{2, 4, 8}, Iters: 100},
		body: func(a Args) (*Table, error) { return Lock(LockOpts{Opts: a.Opts, ProcCounts: a.Procs, Iters: a.Iters}) }},
	{Name: "lockcrash", SimOnly: true, gate: &Args{},
		body: func(a Args) (*Table, error) { return LockCrash(a.Opts, a.size()) }},
	{Name: "elastic", SimOnly: true, gate: &Args{},
		body: func(a Args) (*Table, error) { return Elastic(a.Opts, a.size()) }},
	{Name: "crossover", OwnSweep: true,
		body: func(a Args) (*Table, error) { return Crossover(CrossoverOpts{Opts: a.Opts, Procs: a.size()}) }},
	// The gate stops at 1024 ranks (the CLI sweep goes to 4096): the 4096
	// point costs a minute of simulation, too heavy for a gate that also
	// runs under go test.
	{Name: "crossover-n", SimOnly: true, OwnSweep: true,
		gate: &Args{Procs: []int{64, 256, 1024}}, floor: crossoverNFloor,
		body: func(a Args) (*Table, error) { return CrossoverN(CrossoverNOpts{Opts: a.Opts, NValues: a.Procs}) }},
	{Name: "counts", body: func(a Args) (*Table, error) { return MessageCounts(a.Procs) }},
	{Name: "ablate", body: func(a Args) (*Table, error) { return Ablations(AblationOpts{Opts: a.Opts}) }},
	{Name: "striping", body: func(a Args) (*Table, error) { return Striping(StripingOpts{Opts: a.Opts}) }},
	{Name: "sensitivity", body: func(a Args) (*Table, error) { return Sensitivity(a.Opts) }},
	{Name: "smallput", gate: &Args{}, floor: smallPutFloor,
		body: func(a Args) (*Table, error) { return SmallPut(a.Opts, a.size()) }},
	{Name: "workloads", SimOnly: true, gate: &Args{},
		body: func(a Args) (*Table, error) { return Workloads(a.Opts, a.Specs) }},
	// Counts on the real fabrics: it runs tcp and chan itself, whatever
	// -fabric says, and only what repeats exactly is in it.
	{Name: "wall", gate: &Args{}, body: func(Args) (*Table, error) { return Wall() }},
}

// Find returns the experiment -fig name selects, or nil.
func Find(name string) *Experiment {
	for i := range Experiments {
		if e := &Experiments[i]; e.Name == name || slices.Contains(e.Aliases, name) {
			return e
		}
	}
	return nil
}

// FigNames lists every name and alias Find accepts, in registry order.
func FigNames() []string {
	var names []string
	for _, e := range Experiments {
		names = append(append(names, e.Name), e.Aliases...)
	}
	return names
}

// gatedMetrics runs every gated experiment at its gate sweep, enforces
// its floor and reports its tables' gated columns.
func gatedMetrics(emit func(name string, v float64, unit string)) error {
	for _, e := range Experiments {
		if e.gate == nil {
			continue
		}
		t, err := e.Run(*e.gate)
		if err == nil && e.floor != nil {
			err = e.floor(t)
		}
		if err != nil {
			return fmt.Errorf("bench: baseline %s: %w", e.Name, err)
		}
		t.Metrics(emit)
	}
	return nil
}
