package armci

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseFaults parses a textual fault plan — the grammar of the
// armci-bench -faults flag — into a Faults struct. The plan is a
// comma-separated list of knobs, each given at most once:
//
//	jitter=<dur>         uniform extra delay in [0, dur) per message
//	spike=<dur>@<prob>   latency spike of dur with probability prob
//	dup=<prob>[@<dur>]   duplicate delivery with probability prob,
//	                     the copy trailing by dur (default small)
//	loss=<prob>[@<burst>] drop each transmission with probability prob;
//	                     a loss event extends over burst consecutive
//	                     messages (default 1)
//	rto=<dur>[@<cap>]    initial retransmit timeout, doubling up to cap
//	                     (default 16×rto)
//	retry=<n>            retransmission budget per message, n >= 1
//	crash=<rank>@<sends> fail-stop rank at its sends-th send, sends >= 1
//	crashheld=<rank>@<n> fail-stop rank right after its n-th
//	                     acquisition of a lock (counted per Mutex
//	                     handle, honoured by every LockAlg) — the
//	                     rank dies holding the lock, n >= 1
//	crashrank=<rank>@<n> kill rank partway through sync epoch n of an
//	                     elastic-replication workload (a real worker
//	                     exit under armci-run -elastic, a cooperative
//	                     emulation on the in-process fabrics), n >= 1
//	seed=<int>           fault pattern seed
//
// The empty string parses to the zero Faults (no faults). Any accepted
// plan round-trips: ParseFaults(FormatFaults(f)) returns f again.
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
		switch key {
		case "jitter":
			d, err := time.ParseDuration(val)
			if err != nil {
				return f, fmt.Errorf("bad faults jitter %q: %v", val, err)
			}
			f.Jitter = d
		case "spike":
			dv, pv, ok := strings.Cut(val, "@")
			if !ok {
				return f, fmt.Errorf("bad faults spike %q (want <dur>@<prob>)", val)
			}
			d, err := time.ParseDuration(dv)
			if err != nil {
				return f, fmt.Errorf("bad faults spike delay %q: %v", dv, err)
			}
			p, err := strconv.ParseFloat(pv, 64)
			if err != nil {
				return f, fmt.Errorf("bad faults spike probability %q: %v", pv, err)
			}
			f.SpikeDelay, f.SpikeProb = d, p
		case "dup":
			pv, dv, hasDelay := strings.Cut(val, "@")
			p, err := strconv.ParseFloat(pv, 64)
			if err != nil {
				return f, fmt.Errorf("bad faults dup probability %q: %v", pv, err)
			}
			f.DupProb = p
			if hasDelay {
				d, err := time.ParseDuration(dv)
				if err != nil {
					return f, fmt.Errorf("bad faults dup delay %q: %v", dv, err)
				}
				f.DupDelay = d
			}
		case "loss":
			pv, bv, hasBurst := strings.Cut(val, "@")
			p, err := strconv.ParseFloat(pv, 64)
			if err != nil {
				return f, fmt.Errorf("bad faults loss probability %q: %v", pv, err)
			}
			f.LossProb = p
			if hasBurst {
				b, err := strconv.Atoi(bv)
				if err != nil {
					return f, fmt.Errorf("bad faults loss burst %q: %v", bv, err)
				}
				if b < 1 {
					return f, fmt.Errorf("bad faults loss burst %d: must be >= 1", b)
				}
				f.LossBurst = b
			}
		case "rto":
			dv, cv, hasCap := strings.Cut(val, "@")
			d, err := time.ParseDuration(dv)
			if err != nil {
				return f, fmt.Errorf("bad faults rto %q: %v", dv, err)
			}
			f.RTO = d
			if hasCap {
				c, err := time.ParseDuration(cv)
				if err != nil {
					return f, fmt.Errorf("bad faults rto cap %q: %v", cv, err)
				}
				f.RTOCap = c
			}
		case "retry":
			n, err := strconv.Atoi(val)
			if err != nil {
				return f, fmt.Errorf("bad faults retry budget %q: %v", val, err)
			}
			if n < 1 {
				return f, fmt.Errorf("bad faults retry budget %d: must be >= 1", n)
			}
			f.RetryBudget = n
		case "crash":
			rv, sv, ok := strings.Cut(val, "@")
			if !ok {
				return f, fmt.Errorf("bad faults crash %q (want <rank>@<sends>)", val)
			}
			r, err := strconv.Atoi(rv)
			if err != nil {
				return f, fmt.Errorf("bad faults crash rank %q: %v", rv, err)
			}
			if r < 0 {
				return f, fmt.Errorf("bad faults crash rank %d: must be >= 0", r)
			}
			n, err := strconv.Atoi(sv)
			if err != nil {
				return f, fmt.Errorf("bad faults crash send count %q: %v", sv, err)
			}
			if n < 1 {
				return f, fmt.Errorf("bad faults crash send count %d: must be >= 1", n)
			}
			f.CrashRank, f.CrashAfterSends = r, n
		case "crashheld":
			rv, av, ok := strings.Cut(val, "@")
			if !ok {
				return f, fmt.Errorf("bad faults crashheld %q (want <rank>@<nth-acquire>)", val)
			}
			r, err := strconv.Atoi(rv)
			if err != nil {
				return f, fmt.Errorf("bad faults crashheld rank %q: %v", rv, err)
			}
			if r < 0 {
				return f, fmt.Errorf("bad faults crashheld rank %d: must be >= 0", r)
			}
			n, err := strconv.Atoi(av)
			if err != nil {
				return f, fmt.Errorf("bad faults crashheld acquire count %q: %v", av, err)
			}
			if n < 1 {
				return f, fmt.Errorf("bad faults crashheld acquire count %d: must be >= 1", n)
			}
			f.CrashHeldRank, f.CrashHeldAcquire = r, n
		case "crashrank":
			rv, sv, ok := strings.Cut(val, "@")
			if !ok {
				return f, fmt.Errorf("bad faults crashrank %q (want <rank>@<step>)", val)
			}
			r, err := strconv.Atoi(rv)
			if err != nil {
				return f, fmt.Errorf("bad faults crashrank rank %q: %v", rv, err)
			}
			if r < 0 {
				return f, fmt.Errorf("bad faults crashrank rank %d: must be >= 0", r)
			}
			n, err := strconv.Atoi(sv)
			if err != nil {
				return f, fmt.Errorf("bad faults crashrank step %q: %v", sv, err)
			}
			if n < 1 {
				return f, fmt.Errorf("bad faults crashrank step %d: must be >= 1", n)
			}
			f.ElasticCrashRank, f.ElasticCrashStep = r, n
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return f, fmt.Errorf("bad faults seed %q: %v", val, err)
			}
			f.Seed = n
		default:
			return f, fmt.Errorf("unknown faults knob %q", key)
		}
	}
	if err := f.Validate(); err != nil {
		return f, err
	}
	return f, nil
}

// FormatFaults renders a fault plan in the canonical form of the
// ParseFaults grammar: knobs in a fixed order (jitter, spike, dup, loss,
// rto, retry, crash, crashheld, crashrank, seed), zero-valued knobs omitted, optional
// sub-values omitted when zero. The output re-parses to the same struct
// for any plan ParseFaults accepts. MaxDupsPerPair has no textual form
// and is not rendered.
func FormatFaults(f Faults) string {
	var parts []string
	if f.Jitter != 0 {
		parts = append(parts, "jitter="+f.Jitter.String())
	}
	if f.SpikeProb != 0 || f.SpikeDelay != 0 {
		parts = append(parts, fmt.Sprintf("spike=%s@%s", f.SpikeDelay, fmtProb(f.SpikeProb)))
	}
	if f.DupProb != 0 || f.DupDelay != 0 {
		s := "dup=" + fmtProb(f.DupProb)
		if f.DupDelay != 0 {
			s += "@" + f.DupDelay.String()
		}
		parts = append(parts, s)
	}
	if f.LossProb != 0 || f.LossBurst != 0 {
		s := "loss=" + fmtProb(f.LossProb)
		if f.LossBurst != 0 {
			s += "@" + strconv.Itoa(f.LossBurst)
		}
		parts = append(parts, s)
	}
	if f.RTO != 0 || f.RTOCap != 0 {
		s := "rto=" + f.RTO.String()
		if f.RTOCap != 0 {
			s += "@" + f.RTOCap.String()
		}
		parts = append(parts, s)
	}
	if f.RetryBudget != 0 {
		parts = append(parts, "retry="+strconv.Itoa(f.RetryBudget))
	}
	if f.CrashAfterSends != 0 {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", f.CrashRank, f.CrashAfterSends))
	}
	if f.CrashHeldAcquire != 0 {
		parts = append(parts, fmt.Sprintf("crashheld=%d@%d", f.CrashHeldRank, f.CrashHeldAcquire))
	}
	if f.ElasticCrashStep != 0 {
		parts = append(parts, fmt.Sprintf("crashrank=%d@%d", f.ElasticCrashRank, f.ElasticCrashStep))
	}
	if f.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(f.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// fmtProb renders a probability with the shortest representation that
// parses back to the identical float64.
func fmtProb(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}
