package workloads

import (
	"clustersoc/internal/cluster"
	"clustersoc/internal/nn"
	"clustersoc/internal/soc"
)

// Caffe models the paper's two AI workloads: ImageNet classification with
// AlexNet and GoogleNet under a Caffe-style pipeline. Images are
// embarrassingly parallel across nodes (the paper distributes them with
// scripts; there is no inter-rank communication), but each image must be
// fetched from the NFS file server and JPEG-decoded on the CPU before the
// GPU runs the FP32 forward pass — the CPU:GPU balance that Sec. IV-B
// shows favouring the TX1 cluster over the discrete-GPU system (Fig. 10).
type Caffe struct {
	Net       *nn.Network
	Images    int
	BatchSize int
	// OIDram is the forward pass's DRAM-level operational intensity:
	// cuDNN convolutions reuse weights and activations through the cache
	// hierarchy, so it sits more than an order of magnitude above the
	// stencil codes (Table II) — ~16 FLOP/B, consistent with TX1 AlexNet
	// throughput measurements (~200 img/s FP32).
	OIDram float64
}

// NewAlexNet returns the alexnet workload (8192 ImageNet images).
func NewAlexNet() *Caffe {
	return &Caffe{Net: nn.AlexNet(), Images: 8192, BatchSize: 32, OIDram: 16}
}

// NewGoogleNet returns the googlenet workload.
func NewGoogleNet() *Caffe {
	return &Caffe{Net: nn.GoogleNet(), Images: 8192, BatchSize: 32, OIDram: 17}
}

func (c *Caffe) Name() string         { return c.Net.Name }
func (c *Caffe) GPUAccelerated() bool { return true }
func (c *Caffe) RanksPerNode() int    { return 1 }

// FetchesInput reports whether w's ranks fetch their input from the
// cluster's NFS file server (Context.Fetch), so that it runs only on a
// cluster with Config.FileServer set. The Caffe workloads are the ones
// that do.
func FetchesInput(w Workload) bool {
	_, ok := w.(*Caffe)
	return ok
}

// averageJPEGBytes is the typical size of an ImageNet validation JPEG.
const averageJPEGBytes = 110e3

// decodeWork is the CPU cost of fetching + decoding a batch of JPEGs
// (entropy decode, IDCT, resize to the network input).
func decodeWork(batch int) soc.CPUWork {
	instr, flops, branches := nn.JPEGDecodeCost(nn.ImageNetJPEGWidth, nn.ImageNetJPEGHeight)
	b := float64(batch)
	return soc.CPUWork{
		Instr:         instr * b,
		Flops:         flops * b,
		Branches:      branches * b,
		BranchEntropy: 0.55, // Huffman decoding is data-dependent
		MemAccesses:   0.4 * instr * b,
		L1MissRate:    0.03,
		WorkingSet:    800e3,
		Bytes:         3 * float64(nn.ImageNetJPEGWidth*nn.ImageNetJPEGHeight) * b,
	}
}

// Body returns the per-rank program: a software pipeline that decodes
// batch i+1 on the CPU cores while the GPU classifies batch i.
func (c *Caffe) Body(cfg Config) func(*cluster.Context) {
	// Keep enough images that weight-loading and pipeline fill amortize
	// even in scaled-down runs.
	images := cfg.scaledIters(c.Images, 64*c.BatchSize)
	return func(ctx *cluster.Context) {
		p, rank := ctx.Size(), ctx.Rank
		myImages := images / p
		if rank < images%p {
			myImages++
		}
		batches := (myImages + c.BatchSize - 1) / c.BatchSize

		// Load the model weights once from local eMMC (the paper keeps
		// binaries and models local; only images come over NFS), then
		// stage them onto the device.
		ctx.ReadLocal(c.Net.WeightBytes())
		ctx.CopyIn(c.Net.WeightBytes())

		// Caffe 1.x's image data layer decodes on a single thread, so one
		// core per node does the JPEG work regardless of core count — the
		// reason per-node CPU core count (not per-core speed) sets the
		// pipeline's feed rate (Fig. 10).
		decodeCores := 1

		batchFlops := c.Net.TotalFLOPs() * float64(c.BatchSize)
		forward := gpuKernel(c.Net.Name+"_fwd", batchFlops, c.OIDram, 0.60, true)
		if cfg.HalfPrecision {
			forward.HalfPrecision = true
		}
		inputBytes := 4 * float64(c.Net.Input.Elems()*c.BatchSize)

		var pending *cluster.AsyncKernel
		for b := 0; b < batches; b++ {
			// Fetch and decode the next batch while the GPU works.
			ctx.Fetch(averageJPEGBytes * float64(c.BatchSize))
			ctx.ComputeParallel(decodeWork(c.BatchSize), decodeCores)
			ctx.CopyIn(inputBytes)
			if pending != nil {
				ctx.WaitKernel(pending)
			}
			pending = ctx.KernelAsync(forward)
			ctx.Phase()
		}
		if pending != nil {
			ctx.WaitKernel(pending)
		}
	}
}

func init() {
	register(NewAlexNet())
	register(NewGoogleNet())
}
