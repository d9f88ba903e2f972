package main

import (
	"reflect"
	"testing"

	"coopabft/internal/bifit"
	"coopabft/internal/serve"
	"coopabft/internal/serve/loadgen"
)

func TestParseTenants(t *testing.T) {
	cases := []struct {
		spec string
		want []loadgen.TenantSpec // nil = must be refused
	}{
		{"", []loadgen.TenantSpec{}},
		{"gold=protected@10, flood=SPECULATIVE@100", []loadgen.TenantSpec{
			{Name: "gold", Priority: serve.PriorityProtected, Rate: 10},
			{Name: "flood", Priority: serve.PrioritySpeculative, Rate: 100},
		}},
		{"gold=protected", []loadgen.TenantSpec{{Name: "gold", Priority: serve.PriorityProtected}}},
		{"gold", nil},
		{"gold=", nil},
		{"=protected@10", nil},
		{"gold=@10", nil},
		{"gold=urgent@10", nil},
		{"gold=protected@", nil},
		{"gold=protected@fast", nil},
		{"gold=protected@0", nil},
		{"gold=protected@-5", nil},
		{"gold=protected@NaN", nil},
		{"gold=protected@10,flood", nil},
	}
	for _, tc := range cases {
		got, err := parseTenants(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseTenants(%q) = %+v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) || (len(got) > 0 && !reflect.DeepEqual(got, tc.want)) {
			t.Errorf("parseTenants(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
}

func TestParseTenantGates(t *testing.T) {
	cases := []struct {
		spec string
		want map[string]float64 // nil = must be refused
	}{
		{"", map[string]float64{}},
		{"gold=0.95, flood=1", map[string]float64{"gold": 0.95, "flood": 1}},
		{"gold=0", map[string]float64{"gold": 0}},
		{"gold", nil},
		{"gold=", nil},
		{"=0.95", nil},
		{"gold=most", nil},
		{"gold=-0.1", nil},
		{"gold=NaN", nil},
		{"gold=0.95,flood", nil},
	}
	for _, tc := range cases {
		got, err := parseTenantGates(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseTenantGates(%q) = %v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenantGates(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]bifit.Kind{
		"single-bit":   bifit.SingleBit,
		"double-bit":   bifit.DoubleBitSameWord,
		"Chip-Failure": bifit.ChipFailure,
		"scattered":    bifit.Scattered,
	} {
		if got, err := parseKind(name); err != nil || got != want {
			t.Errorf("parseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "chipkill", "chip failure", "Kind(7)", "single-bit,double-bit"} {
		if got, err := parseKind(name); err == nil {
			t.Errorf("parseKind(%q) = %v, want an error", name, got)
		}
	}
}

// TestParseList: one bad entry refuses the whole flag value; blanks between
// commas are skipped.
func TestParseList(t *testing.T) {
	got, err := parseList(" 10, ,2.5 ", parseRate)
	if err != nil || !reflect.DeepEqual(got, []float64{10, 2.5}) {
		t.Errorf("parseList = %v, %v; want [10 2.5]", got, err)
	}
	for _, spec := range []string{"10,fast", "0", "-1", "NaN"} {
		if got, err := parseList(spec, parseRate); err == nil {
			t.Errorf("parseList(%q) = %v, want an error", spec, got)
		}
	}
	if _, err := parseList("gemm,lu", serve.ParseKernel); err == nil {
		t.Error(`parseList("gemm,lu", ParseKernel) accepted an unknown kernel`)
	}
}
