package main

import (
	"flag"
	"reflect"
	"testing"

	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// TestAxisFlags parses each kind of axis value through the flag helper
// that `r3dla sweep` and `r3dla explore` share.
func TestAxisFlags(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want sweep.Spec
	}{
		{
			name: "no flags leave every axis unset",
			want: sweep.Spec{Budget: 2000},
		},
		{
			name: "lists",
			args: []string{"-workloads", "mcf, libq,", "-preset", "dla,r3"},
			want: sweep.Spec{
				Workloads: []string{"mcf", "libq"},
				Budget:    2000,
				Axes:      sweep.Axes{Preset: []string{"dla", "r3"}},
			},
		},
		{
			name: "bools",
			args: []string{"-t1", "true,false", "-value-reuse", "1", "-fetch-buffer", "F", "-recycle", "true"},
			want: sweep.Spec{Budget: 2000, Axes: sweep.Axes{
				T1:          []bool{true, false},
				ValueReuse:  []bool{true},
				FetchBuffer: []bool{false},
				Recycle:     []bool{true},
			}},
		},
		{
			name: "ints",
			args: []string{"-boq", "64,512", "-fq", "16", "-vq", "8,32", "-version", "0,5"},
			want: sweep.Spec{Budget: 2000, Axes: sweep.Axes{
				BOQSize: []int{64, 512},
				FQSize:  []int{16},
				VQSize:  []int{8, 32},
				Version: []int{0, 5},
			}},
		},
		{
			name: "cores",
			args: []string{"-cores", "default,wide,half"},
			want: sweep.Spec{Budget: 2000, Axes: sweep.Axes{
				Cores: []lab.CoreSpec{{Model: "default"}, {Model: "wide"}, {Model: "half"}},
			}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("axes", flag.ContinueOnError)
			axes := addAxisFlags(fs)
			if err := fs.Parse(tt.args); err != nil {
				t.Fatal(err)
			}
			if got := axes.spec(2000); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("spec mismatch:\n got %+v\nwant %+v", got, tt.want)
			}
		})
	}
}
