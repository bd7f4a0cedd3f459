package kernels

import "math"

// EulerState holds the conserved variables of the 2D compressible Euler
// equations on an nx x ny grid with a one-cell halo — the state cloverleaf
// advances with its explicit Lagrangian-Eulerian hydro scheme. This
// implementation uses a first-order Rusanov (local Lax-Friedrichs) finite
// volume update, which exercises the same per-cell arithmetic and halo
// pattern.
type EulerState struct {
	NX, NY int
	Gamma  float64
	Rho    *Grid2D // density
	MomX   *Grid2D // x-momentum
	MomY   *Grid2D // y-momentum
	Energy *Grid2D // total energy density
}

// NewEulerState allocates a state initialized to quiescent gas (rho=1,
// p=1, v=0) with gamma = 1.4.
func NewEulerState(nx, ny int) *EulerState {
	s := &EulerState{
		NX: nx, NY: ny, Gamma: 1.4,
		Rho: NewGrid2D(nx, ny), MomX: NewGrid2D(nx, ny),
		MomY: NewGrid2D(nx, ny), Energy: NewGrid2D(nx, ny),
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			s.Rho.Set(i, j, 1)
			s.Energy.Set(i, j, 1/(s.Gamma-1))
		}
	}
	return s
}

// Pressure returns the pressure of cell (i,j).
func (s *EulerState) Pressure(i, j int) float64 {
	rho := s.Rho.At(i, j)
	if rho <= 0 {
		return 0
	}
	u := s.MomX.At(i, j) / rho
	v := s.MomY.At(i, j) / rho
	kin := 0.5 * rho * (u*u + v*v)
	return (s.Gamma - 1) * (s.Energy.At(i, j) - kin)
}

// TotalMass returns the integral of density — conserved by the update up
// to boundary fluxes (the property test uses periodic-free interior
// setups where boundaries are quiescent).
func (s *EulerState) TotalMass() float64 {
	m := 0.0
	for i := 0; i < s.NX; i++ {
		for j := 0; j < s.NY; j++ {
			m += s.Rho.At(i, j)
		}
	}
	return m
}

// TotalEnergy returns the integral of the energy density.
func (s *EulerState) TotalEnergy() float64 {
	e := 0.0
	for i := 0; i < s.NX; i++ {
		for j := 0; j < s.NY; j++ {
			e += s.Energy.At(i, j)
		}
	}
	return e
}

// MaxWaveSpeed returns the CFL-limiting signal speed.
func (s *EulerState) MaxWaveSpeed() float64 {
	max := 0.0
	for i := 0; i < s.NX; i++ {
		for j := 0; j < s.NY; j++ {
			rho := s.Rho.At(i, j)
			if rho <= 0 {
				continue
			}
			u := math.Abs(s.MomX.At(i, j) / rho)
			v := math.Abs(s.MomY.At(i, j) / rho)
			c := math.Sqrt(s.Gamma * math.Max(s.Pressure(i, j), 0) / rho)
			if sp := math.Max(u, v) + c; sp > max {
				max = sp
			}
		}
	}
	return max
}

type fluxVec [4]float64

// physFluxX returns the x-direction flux of the conserved vector.
func (s *EulerState) cons(i, j int) fluxVec {
	return fluxVec{s.Rho.At(i, j), s.MomX.At(i, j), s.MomY.At(i, j), s.Energy.At(i, j)}
}

func (s *EulerState) physFlux(q fluxVec, p float64, dir int) fluxVec {
	rho := q[0]
	if rho <= 0 {
		return fluxVec{}
	}
	u, v := q[1]/rho, q[2]/rho
	vel := u
	if dir == 1 {
		vel = v
	}
	f := fluxVec{q[0] * vel, q[1] * vel, q[2] * vel, (q[3] + p) * vel}
	f[1+dir] += p
	return f
}

// Step advances the state by dt on spacing h with a Rusanov update,
// returning the timestep actually used (clamped to CFL 0.4). Interior rows
// update in parallel; halo cells act as reflective quiescent boundaries.
func (s *EulerState) Step(dt, h float64) float64 {
	speed := s.MaxWaveSpeed()
	if speed > 0 {
		cfl := 0.4 * h / speed
		if dt > cfl {
			dt = cfl
		}
	}
	nx, ny := s.NX, s.NY
	newRho := NewGrid2D(nx, ny)
	newMx := NewGrid2D(nx, ny)
	newMy := NewGrid2D(nx, ny)
	newEn := NewGrid2D(nx, ny)

	alpha := speed // global Rusanov dissipation speed
	flux := func(iL, jL, iR, jR, dir int) fluxVec {
		qL, qR := s.cons(iL, jL), s.cons(iR, jR)
		pL, pR := s.Pressure(iL, jL), s.Pressure(iR, jR)
		fL := s.physFlux(qL, pL, dir)
		fR := s.physFlux(qR, pR, dir)
		var out fluxVec
		for k := 0; k < 4; k++ {
			out[k] = 0.5*(fL[k]+fR[k]) - 0.5*alpha*(qR[k]-qL[k])
		}
		return out
	}
	clampIdx := func(i, n int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	ParallelFor(nx, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < ny; j++ {
				fxm := flux(clampIdx(i-1, nx), j, i, j, 0)
				fxp := flux(i, j, clampIdx(i+1, nx), j, 0)
				fym := flux(i, clampIdx(j-1, ny), i, j, 1)
				fyp := flux(i, j, i, clampIdx(j+1, ny), 1)
				q := s.cons(i, j)
				var out fluxVec
				for k := 0; k < 4; k++ {
					out[k] = q[k] - dt/h*(fxp[k]-fxm[k]) - dt/h*(fyp[k]-fym[k])
				}
				newRho.Set(i, j, out[0])
				newMx.Set(i, j, out[1])
				newMy.Set(i, j, out[2])
				newEn.Set(i, j, out[3])
			}
		}
	})
	s.Rho, s.MomX, s.MomY, s.Energy = newRho, newMx, newMy, newEn
	return dt
}

// EulerStepFlops estimates the FLOPs of one hydro step per cell: four
// Rusanov fluxes of four components plus the update (~130 FLOPs/cell,
// matching cloverleaf's published per-cell cost order).
const EulerStepFlopsPerCell = 130

// EulerFieldCount is the number of conserved field arrays exchanged at
// halos each step.
const EulerFieldCount = 4
