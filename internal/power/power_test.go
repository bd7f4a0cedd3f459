package power

import (
	"math"
	"testing"
	"testing/quick"
)

func spec() Spec {
	return Spec{
		IdleWatts:        16,
		CPUCoreWatts:     2.2,
		GPUSMWatts:       5.5,
		DRAMWattsPerGBps: 0.05,
		NICWatts:         5,
		PSUEfficiency:    0.8,
	}
}

func TestIdleEnergy(t *testing.T) {
	m := Meter{Spec: spec()}
	e := m.Energy(10)
	want := 16.0*10/0.8 + 5*10
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("idle energy %v, want %v", e, want)
	}
}

func TestActivityEnergy(t *testing.T) {
	m := Meter{Spec: spec()}
	m.AddCPU(4)     // 4 core-seconds
	m.AddGPU(2)     // 2 SM-seconds
	m.AddDRAM(10e9) // 10 GB
	idle := Meter{Spec: spec()}
	e := m.Energy(1) - idle.Energy(1)
	want := (4*2.2 + 2*5.5 + 10*0.05) / 0.8
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("dynamic energy %v, want %v", e, want)
	}
}

// Energy is additive in busy time and monotone in duration.
func TestEnergyProperties(t *testing.T) {
	f := func(cpuRaw, gpuRaw uint8, durRaw uint8) bool {
		cpu, gpu := float64(cpuRaw)/10, float64(gpuRaw)/10
		dur := float64(durRaw)/10 + cpu + gpu + 1
		a := Meter{Spec: spec()}
		a.AddCPU(cpu)
		a.AddGPU(gpu)
		b := Meter{Spec: spec()}
		b.AddCPU(cpu)
		b.AddGPU(gpu)
		b.AddCPU(1) // extra work must cost extra energy
		return b.Energy(dur) > a.Energy(dur) && a.Energy(dur+1) > a.Energy(dur)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMFLOPSPerWatt(t *testing.T) {
	if got := MFLOPSPerWatt(1e9, 10); math.Abs(got-100) > 1e-9 {
		t.Fatalf("1 GFLOPS at 10 W = %v MFLOPS/W, want 100", got)
	}
	if MFLOPSPerWatt(1e9, 0) != 0 {
		t.Fatal("zero power must not divide")
	}
}

// A zero-value Spec (PSUEfficiency unset) models an ideal supply: dividing
// by the zero efficiency used to send energy to +Inf and poison every
// MFLOPS/W figure downstream.
func TestZeroValueSpecIsIdealSupply(t *testing.T) {
	var m Meter // zero Spec
	if e := m.Energy(10); e != 0 {
		t.Fatalf("zero-value meter energy = %v, want 0", e)
	}
	m.Spec.IdleWatts = 10
	if e := m.Energy(2); e != 20 {
		t.Fatalf("unset PSU efficiency must mean 1.0: energy = %v, want 20", e)
	}
	m.Spec.PSUEfficiency = math.NaN()
	if e := m.Energy(2); e != 20 {
		t.Fatalf("NaN PSU efficiency must mean 1.0: energy = %v, want 20", e)
	}
	m.Spec.PSUEfficiency = -0.5
	if e := m.Energy(2); e != 20 {
		t.Fatalf("negative PSU efficiency must mean 1.0: energy = %v, want 20", e)
	}
}
