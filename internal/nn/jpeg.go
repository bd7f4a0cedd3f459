package nn

// The AI pipeline of Sec. IV-B decodes JPEG images on the CPU before the
// GPU runs the network forward pass — the work that lets the TX1 cluster's
// larger CPU-core pool beat the Xeon hosts (Fig. 10). This file holds the
// cost model the workload charges per image.

// JPEGDecodeCost models the CPU cost of decoding one baseline JPEG of the
// given pixel dimensions: entropy decode + dequantize + IDCT + color
// convert. Returns (instructions, flops, branches) per image. The per-
// pixel constants follow libjpeg profiles (~300 instructions/pixel for
// typical quality settings on in-order ARM cores).
func JPEGDecodeCost(width, height int) (instr, flops, branches float64) {
	pixels := float64(width * height)
	// Entropy decoding is branchy bit-twiddling; IDCT is the FLOP bulk
	// (a fast separable IDCT spends ~10 ops/pixel/component).
	instr = 300 * pixels
	flops = 3 * 10 * pixels
	branches = 45 * pixels
	return instr, flops, branches
}

// ImageNetJPEGDims is the nominal decoded size of an ImageNet validation
// JPEG as the Caffe pipeline resizes it.
const (
	ImageNetJPEGWidth  = 256
	ImageNetJPEGHeight = 256
)
