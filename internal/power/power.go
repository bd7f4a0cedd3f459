// Package power models the energy instrumentation of the paper: each
// system's power is sensed at the wall (a 10 Hz AC current probe) and two
// efficiency metrics are reported — total energy, and FLOPS per watt.
// The model integrates energy analytically from component busy times;
// it samples nothing.
//
// The node model is the usual idle + activity decomposition: a constant
// idle draw plus dynamic power proportional to the busy time of each CPU
// core, GPU SM, and the NIC, divided by the PSU efficiency to convert DC
// component power into the AC-side numbers the paper reports.
package power

// Spec parameterizes one node's (or server's) power behaviour.
type Spec struct {
	// IdleWatts is the DC draw with everything idle (board, DRAM refresh,
	// storage, fans).
	IdleWatts float64
	// CPUCoreWatts is the additional draw of one fully-busy CPU core.
	CPUCoreWatts float64
	// GPUSMWatts is the additional draw of one fully-busy GPU SM.
	GPUSMWatts float64
	// DRAMWattsPerGBps is the activity cost of memory traffic.
	DRAMWattsPerGBps float64
	// NICWatts is the static adder of the installed NIC measured at the
	// wall (the 10 GbE card costs ~5 W per node).
	NICWatts float64
	// PSUEfficiency converts DC power to the AC wall power the paper's
	// probe sees. Unset (or otherwise non-positive / NaN) means an ideal
	// supply: a zero-value Spec must meter zero joules, not +Inf — an
	// unset efficiency once propagated silently into every MFLOPS/W
	// figure as NaN.
	PSUEfficiency float64
}

// psu returns the effective PSU efficiency, treating anything that is not
// a positive number as 1 (the comparison is written to also catch NaN).
func (s Spec) psu() float64 {
	if !(s.PSUEfficiency > 0) {
		return 1
	}
	return s.PSUEfficiency
}

// Meter integrates one node's energy over a run from component busy times.
type Meter struct {
	Spec Spec

	coreBusy float64 // core-seconds of CPU activity
	smBusy   float64 // SM-seconds of GPU activity
	dramGB   float64 // gigabytes moved through DRAM
}

// AddCPU records core-seconds of CPU activity.
func (m *Meter) AddCPU(coreSeconds float64) { m.coreBusy += coreSeconds }

// AddGPU records SM-seconds of GPU activity.
func (m *Meter) AddGPU(smSeconds float64) { m.smBusy += smSeconds }

// AddDRAM records bytes of DRAM traffic.
func (m *Meter) AddDRAM(bytes float64) { m.dramGB += bytes / 1e9 }

// Energy returns the AC-side joules consumed over a run of the given
// duration (seconds).
func (m *Meter) Energy(duration float64) float64 {
	dc := m.Spec.IdleWatts*duration +
		m.Spec.CPUCoreWatts*m.coreBusy +
		m.Spec.GPUSMWatts*m.smBusy +
		m.Spec.DRAMWattsPerGBps*m.dramGB
	return dc/m.Spec.psu() + m.Spec.NICWatts*duration
}

// MFLOPSPerWatt converts a throughput (FLOP/s) and average power (W) into
// the paper's efficiency metric.
func MFLOPSPerWatt(flopsPerSec, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return flopsPerSec / 1e6 / watts
}
