// Package nn accounts the arithmetic of the paper's two AI workloads:
// image classification with the AlexNet and GoogleNet models under Caffe
// (Table I). It provides graph builders that reproduce both
// architectures layer for layer, exact per-layer FLOP and parameter
// counts, which the caffe workload model charges, and the JPEG decode
// cost model. It runs no inference.
package nn

import "fmt"

// Shape is a CHW tensor shape.
type Shape struct {
	C, H, W int
}

// Elems returns the element count.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// String formats the shape.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }
