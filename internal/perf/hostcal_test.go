package perf

import (
	"testing"

	"clustersoc/internal/kernels"
)

// Host calibration returns one well-formed entry per kernel. No timing
// assertions: wall times only need to be positive.
func TestMeasureHostKernels(t *testing.T) {
	const n = 48
	ks := MeasureHostKernels(n, 1)
	if len(ks) != 4 {
		t.Fatalf("got %d kernels", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.Name] {
			t.Errorf("duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
		if k.Flops <= 0 || k.Bytes <= 0 {
			t.Errorf("%s: non-positive work: %v FLOPs, %v bytes", k.Name, k.Flops, k.Bytes)
		}
		if k.Seconds <= 0 {
			t.Errorf("%s: non-positive wall time %v", k.Name, k.Seconds)
		}
		if k.FlopRate() <= 0 {
			t.Errorf("%s: non-positive FLOP rate", k.Name)
		}
		if k.OI() <= 0 {
			t.Errorf("%s: non-positive OI", k.Name)
		}
		// The calibration credits its sweep with the count the jacobi
		// workload model charges.
		if k.Name == "jacobi" {
			if want := kernels.JacobiSweepFlops(n, n); k.Flops != want {
				t.Errorf("jacobi: %v FLOPs, want the sweep count %v", k.Flops, want)
			}
			if want := kernels.JacobiSweepBytes(n, n); k.Bytes != want {
				t.Errorf("jacobi: %v bytes, want the sweep count %v", k.Bytes, want)
			}
		}
	}
}

// MeasureHostKernels must clamp trials below 1 and tolerate tiny grids.
func TestMeasureHostKernelsClampsTrials(t *testing.T) {
	ks := MeasureHostKernels(8, 0)
	if len(ks) != 4 {
		t.Fatalf("got %d kernels", len(ks))
	}
	for _, k := range ks {
		if k.Seconds <= 0 {
			t.Errorf("%s: non-positive wall time with clamped trials", k.Name)
		}
	}
}

// The OI of the calibration GEMM must exceed the streaming kernels' —
// the property the roofline placement relies on.
func TestHostKernelOIOrdering(t *testing.T) {
	ks := MeasureHostKernels(32, 1)
	oi := map[string]float64{}
	for _, k := range ks {
		oi[k.Name] = k.OI()
	}
	if oi["gemm"] <= oi["triad"] || oi["gemm"] <= oi["dot"] {
		t.Fatalf("gemm OI %v not above streaming kernels (triad %v, dot %v)",
			oi["gemm"], oi["triad"], oi["dot"])
	}
}
