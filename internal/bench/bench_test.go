package bench

import (
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTable3MatchesPaperShape asserts the paper's Table 3 relationships:
// group-spanning operations roughly double the local ones, and SemperOS
// carries a moderate DDL overhead over M3.
func TestTable3MatchesPaperShape(t *testing.T) {
	r := Table3(Options{})
	// Paper: 3597 / 6484 / 1997 / 3876 cycles; M3 3250 / 1423.
	within := func(name string, got, want uint64, tolPct float64) {
		t.Helper()
		lo := float64(want) * (1 - tolPct/100)
		hi := float64(want) * (1 + tolPct/100)
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("%s = %d, want %d ±%.0f%%", name, got, want, tolPct)
		}
	}
	within("exchange local", uint64(r.ExchangeLocal), 3597, 5)
	within("exchange spanning", uint64(r.ExchangeSpanning), 6484, 5)
	within("revoke local", uint64(r.RevokeLocal), 1997, 5)
	within("revoke spanning", uint64(r.RevokeSpanning), 3876, 5)
	within("M3 exchange", uint64(r.M3Exchange), 3250, 5)
	within("M3 revoke", uint64(r.M3Revoke), 1423, 5)
	if r.ExchangeSpanning < r.ExchangeLocal*3/2 {
		t.Error("spanning exchange should cost well over the local one")
	}
	if r.M3Exchange >= r.ExchangeLocal {
		t.Error("M3 exchange should be cheaper than SemperOS local")
	}
}

// TestFig4Shape asserts chain revocation relationships: cost grows linearly
// with chain length; the spanning chain costs about 3x the local one; M3 is
// roughly half of SemperOS locally.
func TestFig4Shape(t *testing.T) {
	r := Fig4(Options{}, 30)
	last := len(r.Lengths) - 1
	localSlope := float64(r.LocalSemperOS[last].Cycles-r.LocalSemperOS[0].Cycles) / float64(r.Lengths[last])
	spanSlope := float64(r.SpanningChain[last].Cycles-r.SpanningChain[0].Cycles) / float64(r.Lengths[last])
	m3Slope := float64(r.LocalM3[last].Cycles-r.LocalM3[0].Cycles) / float64(r.Lengths[last])
	if ratio := spanSlope / localSlope; ratio < 2.5 || ratio > 4.5 {
		t.Errorf("spanning/local slope ratio = %.2f, want ~3 (paper)", ratio)
	}
	if ratio := m3Slope / localSlope; ratio < 0.4 || ratio > 0.75 {
		t.Errorf("M3/SemperOS local slope ratio = %.2f, want ~0.5 (paper)", ratio)
	}
	// Monotonicity.
	for i := 1; i <= last; i++ {
		if r.LocalSemperOS[i].Cycles <= r.LocalSemperOS[i-1].Cycles {
			t.Error("local chain revocation time not increasing")
		}
	}
}

// TestFig5BreakEven asserts the paper's Figure 5 result: distributing the
// child capabilities over 12 kernels breaks even with local revocation at
// about 80 children, and one remote kernel is much slower than local.
func TestFig5BreakEven(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := Fig5(Options{}, 128)
	series := map[int][]ChainPoint{}
	for _, s := range r.Series {
		series[s.ExtraKernels] = s.Points
	}
	local, k12, k1 := series[0], series[12], series[1]
	// Break-even: by 96 children the 12-kernel spread must win; below 64 it
	// must not.
	idxOf := func(n int) int {
		for i, c := range r.Counts {
			if c == n {
				return i
			}
		}
		t.Fatalf("count %d not measured", n)
		return -1
	}
	if i := idxOf(96); k12[i].Cycles >= local[i].Cycles {
		t.Errorf("at 96 children 12 kernels (%d) should beat local (%d)", k12[i].Cycles, local[i].Cycles)
	}
	if i := idxOf(48); k12[i].Cycles <= local[i].Cycles {
		t.Errorf("at 48 children local (%d) should beat 12 kernels (%d)", local[i].Cycles, k12[i].Cycles)
	}
	// A single remote kernel serializes all inter-kernel work: much slower.
	if i := idxOf(96); k1[i].Cycles < 2*local[i].Cycles {
		t.Errorf("1+1 kernels (%d) should be far slower than local (%d)", k1[i].Cycles, local[i].Cycles)
	}
}

// TestTable4Quick verifies the capability operation counts at quick scale.
func TestTable4Quick(t *testing.T) {
	r := Table4(Quick())
	for _, row := range r.Rows {
		if row.CapOps1 != row.PaperOps {
			t.Errorf("%s: cap ops = %d, want %d", row.Name, row.CapOps1, row.PaperOps)
		}
		if row.CapOpsN != row.PaperOps*uint64(r.N) {
			t.Errorf("%s: cap ops(N) = %d, want %d", row.Name, row.CapOpsN, row.PaperOps*uint64(r.N))
		}
		if row.RateN <= row.Rate1 {
			t.Errorf("%s: aggregate rate not above single rate", row.Name)
		}
	}
}

// TestEfficiencyBandQuick checks that parallel efficiency degrades with
// scale but stays in a sane band at quick scale.
func TestEfficiencyBandQuick(t *testing.T) {
	lo, hi := parallelEfficiencyBand(Quick())
	if lo < 0.4 || hi > 1.01 {
		t.Errorf("efficiency band [%.2f, %.2f] out of range", lo, hi)
	}
	if lo > hi {
		t.Errorf("band inverted: [%.2f, %.2f]", lo, hi)
	}
}

// TestFig6QuickShape: efficiency must not increase with instance count.
func TestFig6QuickShape(t *testing.T) {
	o := Quick()
	o.InstanceSteps = []int{16, 64}
	pts := o.efficiencySweep(trace.PostMark(), o.Kernels64/2, o.Kernels64/2, o.InstanceSteps)
	if pts[1].Efficiency > pts[0].Efficiency*1.05 {
		t.Errorf("efficiency rose with load: %.2f -> %.2f", pts[0].Efficiency, pts[1].Efficiency)
	}
}

// TestFig7ServiceDependenceQuick: more services must help a service-bound
// workload.
func TestFig7ServiceDependenceQuick(t *testing.T) {
	tr := trace.SQLite()
	few := Options{}.efficiencySweep(tr, 8, 1, []int{48})
	many := Options{}.efficiencySweep(tr, 8, 8, []int{48})
	if many[0].Efficiency <= few[0].Efficiency {
		t.Errorf("8 services (%.2f) not better than 1 (%.2f)", many[0].Efficiency, few[0].Efficiency)
	}
}

// TestFig8KernelDependenceQuick: more kernels must help a cap-op-heavy
// workload.
func TestFig8KernelDependenceQuick(t *testing.T) {
	tr := trace.PostMark()
	few := Options{}.efficiencySweep(tr, 1, 8, []int{48})
	many := Options{}.efficiencySweep(tr, 8, 8, []int{48})
	if many[0].Efficiency <= few[0].Efficiency {
		t.Errorf("8 kernels (%.2f) not better than 1 (%.2f)", many[0].Efficiency, few[0].Efficiency)
	}
}

// TestFig10QuickShape: requests scale with server count when the OS is
// provisioned, and print output renders.
func TestFig10QuickShape(t *testing.T) {
	small, err := workload.RunNginx(workload.NginxConfig{Kernels: 4, Services: 4, Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	big, err := workload.RunNginx(workload.NginxConfig{Kernels: 4, Services: 4, Servers: 12})
	if err != nil {
		t.Fatal(err)
	}
	bigRate, smallRate := reqRate(big.Requests, uint64(big.Duration)), reqRate(small.Requests, uint64(small.Duration))
	if bigRate <= smallRate {
		t.Errorf("12 servers (%.0f/s) not faster than 4 (%.0f/s)", bigRate, smallRate)
	}
}

// TestPrinters smoke-tests the report formatting.
func TestPrinters(t *testing.T) {
	var sb strings.Builder
	Table3(Options{}).Print(&sb)
	Fig4(Options{}, 10).Print(&sb)
	r := Table4(Quick())
	r.Print(&sb)
	for _, want := range []string{"Table 3", "Figure 4", "Table 4", "tar", "postmark"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
