package armci

import (
	"strconv"
	"strings"
	"time"
)

// FormatFaults renders a fault plan in the canonical form of the
// ParseFaults grammar: knobs in faultKnobs order, knobs that are off
// omitted, an optional '@' value omitted when zero. The output re-parses
// to the same struct for any plan ParseFaults accepts.
func FormatFaults(f Faults) string {
	var parts []string
	for _, k := range faultKnobs {
		var vals []string
		knobOn, lastOn := false, false
		for _, field := range k.fields(&f) {
			s, on := renderFaultField(field)
			vals = append(vals, s)
			knobOn, lastOn = knobOn || on, on
		}
		if !knobOn {
			continue
		}
		if len(vals) == 2 && !lastOn && strings.Contains(k.form, "[") {
			vals = vals[:1]
		}
		parts = append(parts, k.key+"="+strings.Join(vals, "@"))
	}
	return strings.Join(parts, ",")
}

// renderFaultField returns a field's canonical text and whether it turns
// its knob on. A rank only says which rank a knob strikes, so it never
// does: a crash knob is on when its count is.
func renderFaultField(field any) (string, bool) {
	switch p := field.(type) {
	case *time.Duration:
		return p.String(), *p != 0
	case *float64:
		// The shortest representation that parses back to the same float.
		return strconv.FormatFloat(*p, 'g', -1, 64), *p != 0
	case *int64:
		return strconv.FormatInt(*p, 10), *p != 0
	}
	p := field.(intField)
	return strconv.Itoa(*p.p), p.min > 0 && *p.p != 0
}
