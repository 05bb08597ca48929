package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The workload grammar is
//
//	<kind>[:<knob>=<value>,<knob>=<value>,...]
//
// with one kind from Kinds() and the knobs that apply to it — the rows of
// knobs — each given at most once and with no whitespace. Errors carry
// the byte offset of the offending token (ParseError); any accepted spec
// round-trips through Format, and Format output is a canonical fixed
// point (defaults elided, knobs in table order).

// Workload kinds.
const (
	// KindStencil: halo-exchange Jacobi sweeps over a ga 2-D array.
	KindStencil = "stencil"
	// KindParamServer: all ranks Accumulate update vectors into one hot
	// rank's parameter vector.
	KindParamServer = "paramserver"
	// KindProdCons: pipelined producer→consumer chain via PutFlag /
	// WaitFlag.
	KindProdCons = "prodcons"
	// KindMixed: adversarial program sampled from the seeded grammar.
	KindMixed = "mixed"
)

// Kinds lists the workload kinds in sweep order.
func Kinds() []string {
	return []string{KindStencil, KindParamServer, KindProdCons, KindMixed}
}

// Spec is a parsed workload spec. The zero value of a knob means "use
// the kind's default"; parse ranges exclude zero except where zero is
// meaningful (hot, nb).
type Spec struct {
	// Kind is one of Kinds().
	Kind string

	// stencil
	Rows, Cols, Halo, Steps int
	// paramserver
	Hot, Updates, Width int
	// prodcons
	Chunks, Bytes, Depth int
	// mixed
	Ops, Rounds, MaxBytes int
	Skew                  string
	NbPct                 int
	// nbSet distinguishes an explicit nb=0 (all blocking) from the
	// elided default (50).
	nbSet bool

	// GenSeed overrides the case seed as the generator seed (0 = use
	// the case seed).
	GenSeed int64
}

// knob is one row of the grammar: its key, the kind it applies to ("" =
// every kind), the range of an integer value or the names of an enum
// one, its default as written ("" = none), and the Spec field it sets —
// an *int, the *int64 seed or the *string skew. explicitZero marks the
// one knob whose written 0 is not its default: Spec.nbSet records it.
type knob struct {
	key, kind    string
	lo, hi       int64
	enum         []string
	def          string
	explicitZero bool
	field        func(*Spec) any
}

// knobs is the workload grammar, one row per knob in canonical order.
// Parse, Format, withDefaults and the error messages' knob lists all
// read it. Defaults are sized so a default case stays fast under a seed
// sweep while still exercising multi-chunk, multi-round geometry.
var knobs = []knob{
	// stencil: grid shape, neighbor distance (may exceed the per-rank
	// tile), sweep count
	{key: "rows", kind: KindStencil, lo: 1, hi: 256, def: "8", field: func(s *Spec) any { return &s.Rows }},
	{key: "cols", kind: KindStencil, lo: 1, hi: 256, def: "8", field: func(s *Spec) any { return &s.Cols }},
	{key: "halo", kind: KindStencil, lo: 1, hi: 16, def: "1", field: func(s *Spec) any { return &s.Halo }},
	{key: "steps", kind: KindStencil, lo: 1, hi: 32, def: "2", field: func(s *Spec) any { return &s.Steps }},
	// paramserver: server rank, updates per rank, vector length in words
	{key: "hot", kind: KindParamServer, lo: 0, hi: 4095, field: func(s *Spec) any { return &s.Hot }},
	{key: "updates", kind: KindParamServer, lo: 1, hi: 1024, def: "4", field: func(s *Spec) any { return &s.Updates }},
	{key: "width", kind: KindParamServer, lo: 1, hi: 512, def: "8", field: func(s *Spec) any { return &s.Width }},
	// prodcons: chunks per item, bytes per chunk, items in flight
	{key: "chunks", kind: KindProdCons, lo: 1, hi: 64, def: "3", field: func(s *Spec) any { return &s.Chunks }},
	{key: "bytes", kind: KindProdCons, lo: 1, hi: 4096, def: "128", field: func(s *Spec) any { return &s.Bytes }},
	{key: "depth", kind: KindProdCons, lo: 1, hi: 64, def: "2", field: func(s *Spec) any { return &s.Depth }},
	// mixed: ops per rank per round, rounds, target skew, payload cap,
	// percent of eligible ops issued non-blocking
	{key: "ops", kind: KindMixed, lo: 1, hi: 4096, def: "12", field: func(s *Spec) any { return &s.Ops }},
	{key: "rounds", kind: KindMixed, lo: 1, hi: 64, def: "2", field: func(s *Spec) any { return &s.Rounds }},
	{key: "skew", kind: KindMixed, enum: []string{"uniform", "hot", "neighbor"}, def: "uniform", field: func(s *Spec) any { return &s.Skew }},
	{key: "maxbytes", kind: KindMixed, lo: 8, hi: 4096, def: "256", field: func(s *Spec) any { return &s.MaxBytes }},
	{key: "nb", kind: KindMixed, lo: 0, hi: 100, def: "50", explicitZero: true, field: func(s *Spec) any { return &s.NbPct }},
	// every kind: the generator seed, overriding the case seed
	{key: "seed", lo: 0, hi: math.MaxInt64, field: func(s *Spec) any { return &s.GenSeed }},
}

func (k knob) appliesTo(kind string) bool { return k.kind == "" || k.kind == kind }

// set parses val into the knob's field of sp.
func (k knob) set(sp *Spec, val string) error {
	if p, ok := k.field(sp).(*string); ok {
		if !slices.Contains(k.enum, val) {
			return fmt.Errorf("bad %s %q (want %s)", k.key, val, strings.Join(k.enum, ", "))
		}
		*p = val
		return nil
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad %s value %q: want an integer", k.key, val)
	}
	if n < k.lo || n > k.hi {
		return fmt.Errorf("%s=%d out of range [%d,%d]", k.key, n, k.lo, k.hi)
	}
	switch p := k.field(sp).(type) {
	case *int:
		*p = int(n)
	case *int64:
		*p = n
	}
	sp.nbSet = sp.nbSet || k.explicitZero
	return nil
}

// get returns the knob's value in sp as written and whether it is set;
// an unset knob takes its default.
func (k knob) get(sp *Spec) (string, bool) {
	switch p := k.field(sp).(type) {
	case *string:
		return *p, *p != ""
	case *int64:
		return strconv.FormatInt(*p, 10), *p != 0
	}
	n := *k.field(sp).(*int)
	if k.explicitZero {
		return strconv.Itoa(n), sp.nbSet
	}
	return strconv.Itoa(n), n != 0
}

// ParseError is a workload-grammar syntax error, locating the
// offending token by byte offset in the input.
type ParseError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("workload %q: pos %d: %s", e.Input, e.Pos, e.Msg)
}

// Parse parses a workload spec string. On error the returned error is
// a *ParseError carrying the byte offset of the offending token.
func Parse(s string) (Spec, error) {
	var sp Spec
	fail := func(pos int, format string, args ...any) (Spec, error) {
		return sp, &ParseError{Input: s, Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	if s == "" {
		return fail(0, "empty workload spec (want <kind>[:knob=value,...])")
	}
	kind, rest, hasKnobs := strings.Cut(s, ":")
	if !slices.Contains(Kinds(), kind) {
		return fail(0, "unknown workload kind %q (want %s)", kind, strings.Join(Kinds(), ", "))
	}
	sp.Kind = kind
	if !hasKnobs {
		return sp, nil
	}
	off := len(kind) + 1
	if rest == "" {
		return fail(off, "empty knob list after ':'")
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok || key == "" {
			return fail(off, "bad knob %q (want key=value)", part)
		}
		if seen[key] {
			return fail(off, "duplicate knob %q: each knob may be given at most once", key)
		}
		seen[key] = true
		i := slices.IndexFunc(knobs, func(k knob) bool { return k.key == key })
		if i < 0 {
			return fail(off, "unknown knob %q (%s knobs: %s)", key, kind, kindKnobs(kind))
		}
		if !knobs[i].appliesTo(kind) {
			return fail(off, "knob %q does not apply to kind %q (%s knobs: %s)", key, kind, kind, kindKnobs(kind))
		}
		if err := knobs[i].set(&sp, val); err != nil {
			return fail(off+len(key)+1, "%v", err)
		}
		off += len(part) + 1
	}
	return sp, nil
}

// kindKnobs lists the knobs that apply to a kind, in table order.
func kindKnobs(kind string) string {
	var keys []string
	for _, k := range knobs {
		if k.appliesTo(kind) {
			keys = append(keys, k.key)
		}
	}
	return strings.Join(keys, ", ")
}

// Format renders the canonical spec string: the kind's knobs in table
// order with unset ones elided. Parse(Format(sp)) returns sp for any sp
// produced by Parse, and Format(Parse(Format(sp))) is a fixed point.
func Format(sp Spec) string {
	s, sep := sp.Kind, ":"
	for _, k := range knobs {
		if v, set := k.get(&sp); set && k.appliesTo(sp.Kind) {
			s, sep = s+sep+k.key+"="+v, ","
		}
	}
	return s
}

// ValidateFor checks the knobs that depend on the run shape: Parse
// cannot know the process count.
func (sp Spec) ValidateFor(procs int) error {
	if sp.Kind == KindParamServer && sp.Hot >= procs {
		return fmt.Errorf("workload %q: hot rank %d out of range for %d procs", Format(sp), sp.Hot, procs)
	}
	return nil
}

// withDefaults fills the kind's unset knobs with their defaults.
func (sp Spec) withDefaults() Spec {
	for _, k := range knobs {
		if _, set := k.get(&sp); !set && k.def != "" && k.appliesTo(sp.Kind) {
			if err := k.set(&sp, k.def); err != nil {
				panic("workload: bad default in the knob table: " + err.Error())
			}
		}
	}
	return sp
}

// genSeed resolves the effective generator seed: the spec's own, or
// the case seed so a seed sweep also sweeps generated programs.
func (sp Spec) genSeed(caseSeed int64) int64 {
	if sp.GenSeed != 0 {
		return sp.GenSeed
	}
	return caseSeed
}
