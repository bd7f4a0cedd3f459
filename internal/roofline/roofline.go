// Package roofline implements the classic Roofline model and the paper's
// extension for integrated-GPGPU clusters (Sec. III-B.3).
//
// The extension separates the two data paths that feed a node's GPU:
// DRAM traffic (locality) and network traffic between nodes
// (communication). It defines
//
//	operational intensity OI = FLOPs / DRAM bytes      (eq. 1)
//	network intensity     NI = FLOPs / network bytes   (eq. 2)
//	attainable = min(peak, memBW*OI, netBW*NI)         (eq. 3)
//
// so a workload is bounded by whichever of the compute, memory, or network
// roofs it hits first.
package roofline

import (
	"math"
)

// Limit identifies which roof binds a workload.
type Limit string

const (
	LimitCompute     Limit = "compute"
	LimitOperational Limit = "operational" // DRAM-bandwidth roof
	LimitNetwork     Limit = "network"
)

// Model is a per-node extended roofline: peak FLOP/s, memory bandwidth,
// and network bandwidth.
type Model struct {
	Name         string
	PeakFlops    float64 // per-node attainable peak (FLOP/s)
	MemBandwidth float64 // bytes/second to the GPU from DRAM
	NetBandwidth float64 // bytes/second per node over the NIC
}

// Attainable returns the peak performance for a workload with the given
// operational and network intensities (FLOP/byte). Infinite intensity
// (zero traffic on a path) removes that roof.
func (m Model) Attainable(oi, ni float64) float64 {
	peak := m.PeakFlops
	if !math.IsInf(oi, 1) && oi > 0 {
		peak = math.Min(peak, m.MemBandwidth*oi)
	}
	if !math.IsInf(ni, 1) && ni > 0 {
		peak = math.Min(peak, m.NetBandwidth*ni)
	}
	return peak
}

// LimitingFactor reports which roof bounds a workload at (oi, ni).
func (m Model) LimitingFactor(oi, ni float64) Limit {
	memRoof := math.Inf(1)
	if !math.IsInf(oi, 1) && oi > 0 {
		memRoof = m.MemBandwidth * oi
	}
	netRoof := math.Inf(1)
	if !math.IsInf(ni, 1) && ni > 0 {
		netRoof = m.NetBandwidth * ni
	}
	switch {
	case netRoof <= memRoof && netRoof <= m.PeakFlops:
		return LimitNetwork
	case memRoof <= m.PeakFlops:
		return LimitOperational
	default:
		return LimitCompute
	}
}

// RidgeOI returns the operational intensity where the memory roof meets
// the compute roof.
func (m Model) RidgeOI() float64 { return m.PeakFlops / m.MemBandwidth }

// RidgeNI returns the network intensity where the network roof meets the
// compute roof.
func (m Model) RidgeNI() float64 { return m.PeakFlops / m.NetBandwidth }

// Point is one measured workload on the extended roofline.
type Point struct {
	Name       string
	FLOPs      float64 // total FLOPs executed per node
	DRAMBytes  float64 // DRAM traffic per node
	NetBytes   float64 // network traffic per node
	Throughput float64 // achieved FLOP/s per node
}

// OI returns the point's operational intensity (eq. 1).
func (p Point) OI() float64 {
	if p.DRAMBytes == 0 {
		return math.Inf(1)
	}
	return p.FLOPs / p.DRAMBytes
}

// NI returns the point's network intensity (eq. 2).
func (p Point) NI() float64 {
	if p.NetBytes == 0 {
		return math.Inf(1)
	}
	return p.FLOPs / p.NetBytes
}

// Analysis is a row of the paper's Table II.
type Analysis struct {
	Name          string
	OI, NI        float64
	Throughput    float64 // achieved FLOP/s
	Peak          float64 // attainable under the model
	PercentOfPeak float64
	Limit         Limit
}

// Analyze places a measured point under the model.
func (m Model) Analyze(p Point) Analysis {
	oi, ni := p.OI(), p.NI()
	peak := m.Attainable(oi, ni)
	a := Analysis{
		Name:       p.Name,
		OI:         oi,
		NI:         ni,
		Throughput: p.Throughput,
		Peak:       peak,
		Limit:      m.LimitingFactor(oi, ni),
	}
	if peak > 0 {
		a.PercentOfPeak = 100 * p.Throughput / peak
	}
	return a
}

// SeriesPoint is one sample of a roofline curve for plotting.
type SeriesPoint struct {
	OI         float64
	Attainable float64
}

// MemorySeries samples the classic (memory+compute) roofline over a
// log-spaced OI grid from lo to hi — the curve of Fig. 4.
func (m Model) MemorySeries(lo, hi float64, n int) []SeriesPoint {
	if n < 2 || lo <= 0 || hi <= lo {
		return nil
	}
	out := make([]SeriesPoint, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	oi := lo
	for i := 0; i < n; i++ {
		out[i] = SeriesPoint{OI: oi, Attainable: math.Min(m.PeakFlops, m.MemBandwidth*oi)}
		oi *= ratio
	}
	return out
}

// NetworkCeiling returns the horizontal roof (FLOP/s) the network imposes
// at a given network intensity — the per-workload ceilings the extension
// adds to Fig. 4.
func (m Model) NetworkCeiling(ni float64) float64 {
	if math.IsInf(ni, 1) || ni <= 0 {
		return m.PeakFlops
	}
	return math.Min(m.PeakFlops, m.NetBandwidth*ni)
}
