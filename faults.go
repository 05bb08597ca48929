package armci

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// faultKnob is one knob of the fault-plan grammar: key=form, where form
// is one value or two joined by '@' (the second optional when the form
// brackets it). fields returns pointers into a Faults, one per value:
// *time.Duration, *float64 (a probability), *int64 (the seed) or an
// intField (a rank or a count).
type faultKnob struct {
	key, form string
	fields    func(*Faults) []any
}

// intField is an int knob value with its lower bound: 0 for a rank, 1 for
// a count.
type intField struct {
	p   *int
	min int
}

// faultKnobs is the fault-plan grammar, one row per knob in canonical
// order. ParseFaults reads it, as does the tests' canonical renderer
// (FormatFaults); nothing else lists the knobs but documentation
// (ParseFaults' comment, the README).
var faultKnobs = []faultKnob{
	// uniform extra delay in [0, dur) per message
	{"jitter", "<dur>", func(f *Faults) []any { return []any{&f.Jitter} }},
	// latency spike of dur with probability prob
	{"spike", "<dur>@<prob>", func(f *Faults) []any { return []any{&f.SpikeDelay, &f.SpikeProb} }},
	// duplicate delivery with probability prob, the copy trailing by dur
	// (default small)
	{"dup", "<prob>[@<dur>]", func(f *Faults) []any { return []any{&f.DupProb, &f.DupDelay} }},
	// drop each transmission with probability prob; a loss event spans
	// burst consecutive messages (default 1)
	{"loss", "<prob>[@<burst>]", func(f *Faults) []any { return []any{&f.LossProb, intField{&f.LossBurst, 1}} }},
	// initial retransmit timeout, doubling up to cap (default 16×rto)
	{"rto", "<dur>[@<cap>]", func(f *Faults) []any { return []any{&f.RTO, &f.RTOCap} }},
	// retransmission budget per message
	{"retry", "<n>", func(f *Faults) []any { return []any{intField{&f.RetryBudget, 1}} }},
	// fail-stop rank at its sends-th send
	{"crash", "<rank>@<sends>", func(f *Faults) []any {
		return []any{intField{&f.CrashRank, 0}, intField{&f.CrashAfterSends, 1}}
	}},
	// fail-stop rank right after its n-th acquisition of a lock (counted
	// per Mutex handle, honoured by every LockAlg): it dies holding the lock
	{"crashheld", "<rank>@<n>", func(f *Faults) []any {
		return []any{intField{&f.CrashHeldRank, 0}, intField{&f.CrashHeldAcquire, 1}}
	}},
	// kill rank partway through sync epoch n of an elastic-replication
	// workload (a real worker exit under armci-run -elastic, a cooperative
	// emulation on the in-process fabrics)
	{"crashrank", "<rank>@<n>", func(f *Faults) []any {
		return []any{intField{&f.ElasticCrashRank, 0}, intField{&f.ElasticCrashStep, 1}}
	}},
	// fault pattern seed
	{"seed", "<int>", func(f *Faults) []any { return []any{&f.Seed} }},
}

// ParseFaults parses a textual fault plan — the grammar of the
// armci-bench -faults flag — into a Faults struct. The plan is a
// comma-separated list of key=value knobs, each given at most once; the
// knobs and their value forms are the rows of faultKnobs:
//
//	jitter=<dur> spike=<dur>@<prob> dup=<prob>[@<dur>] loss=<prob>[@<burst>]
//	rto=<dur>[@<cap>] retry=<n> crash=<rank>@<sends> crashheld=<rank>@<n>
//	crashrank=<rank>@<n> seed=<int>
//
// A rank is >= 0 and a count (<burst>, <n>, <sends>) >= 1. The empty
// string parses to the zero Faults (no faults). Any accepted plan
// round-trips through its canonical rendering (FuzzParseFaults).
func ParseFaults(s string) (Faults, error) {
	var f Faults
	if s == "" {
		return f, nil
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return f, fmt.Errorf("bad faults entry %q (want key=value)", part)
		}
		if seen[key] {
			return f, fmt.Errorf("duplicate faults knob %q: each knob may be given at most once", key)
		}
		seen[key] = true
		i := slices.IndexFunc(faultKnobs, func(k faultKnob) bool { return k.key == key })
		if i < 0 {
			return f, fmt.Errorf("unknown faults knob %q", key)
		}
		k := faultKnobs[i]
		fields, vals := k.fields(&f), []string{val}
		if len(fields) == 2 {
			first, second, hasAt := strings.Cut(val, "@")
			vals = []string{first}
			if hasAt {
				vals = append(vals, second)
			} else if !strings.Contains(k.form, "[") {
				return f, fmt.Errorf("bad faults %s %q (want %s)", key, val, k.form)
			}
		}
		for j, v := range vals {
			if err := setFaultField(fields[j], v); err != nil {
				return f, fmt.Errorf("bad faults %s %q (want %s): %v", key, val, k.form, err)
			}
		}
	}
	if err := f.Validate(); err != nil {
		return f, err
	}
	return f, nil
}

// setFaultField parses one value of a knob into the field it sets.
func setFaultField(field any, s string) (err error) {
	switch p := field.(type) {
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *int64:
		*p, err = strconv.ParseInt(s, 10, 64)
	case intField:
		if *p.p, err = strconv.Atoi(s); err == nil && *p.p < p.min {
			err = fmt.Errorf("%d must be >= %d", *p.p, p.min)
		}
	}
	return err
}
