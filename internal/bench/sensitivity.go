package bench

import (
	"fmt"

	"armci"
)

// sensitivityPresets span an order of magnitude of interconnect latency.
var sensitivityPresets = []armci.CostPreset{
	armci.PresetLowLatency, armci.PresetMyrinet2000, armci.PresetFastEthernet,
}

// Sensitivity is the network-sensitivity analysis: the Figure 7 workload
// at 16 processes (the paper's headline point), GA_Sync old vs new,
// under each of sensitivityPresets — answering "how much of the paper's
// 9× depends on Myrinet-class latency?".
func Sensitivity(o Opts) (*Table, error) {
	const procs = 16
	t := &Table{
		Cols: []Col{
			{Key: "model", Head: "model", Width: 16},
			usCol("current_us", "current (us)", ""), usCol("new_us", "new (us)", ""),
			{Key: "factor", Head: "factor", Width: 10, Prec: 2},
		},
		Sections: []Section{{
			Title: fmt.Sprintf("Network sensitivity (extension): GA_Sync at %d procs per cost model", procs),
			Cols:  "model current_us new_us factor",
		}},
	}
	for _, preset := range sensitivityPresets {
		o.Preset = preset
		f7, err := Fig7(Fig7Opts{Opts: o, ProcCounts: []int{procs}})
		if err != nil {
			return nil, fmt.Errorf("bench: sensitivity %s: %w", preset, err)
		}
		row := f7.Rows[0]
		t.Rows = append(t.Rows, []any{string(preset), row.OldUS, row.NewUS, row.Factor})
	}
	return t, nil
}
