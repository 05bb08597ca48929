package bench

import "testing"

// TestParseFig7ProcResult reads back what the worker prints and rejects
// every other line the launcher sees.
func TestParseFig7ProcResult(t *testing.T) {
	row := Fig7Row{Procs: 4, OldUS: 412.25, NewUS: 181.0625}
	for _, tc := range []struct {
		name, line string
		ok         bool
	}{
		{"formatted row", "  " + formatFig7ProcResult(row) + "\n", true},
		{"missing prefix", "procs=4 old_us=412.25 new_us=181.0625", false},
		{"non-positive value", Fig7ProcResultPrefix + " procs=4 old_us=412.25 new_us=0", false},
		{"garbage", Fig7ProcResultPrefix + " procs=four old_us=x new_us=y", false},
	} {
		got, ok := ParseFig7ProcResult(tc.line)
		if ok != tc.ok {
			t.Errorf("%s: %q parsed %v, want %v", tc.name, tc.line, ok, tc.ok)
			continue
		}
		want := Fig7Row{}
		if tc.ok {
			want = row
			want.Factor = row.OldUS / row.NewUS
		}
		if got != want {
			t.Errorf("%s: parsed %+v, want %+v", tc.name, got, want)
		}
	}
}
