package nn

// AlexNet builds the Caffe bvlc_alexnet deploy network (Krizhevsky et
// al.), the first of the paper's two image-classification workloads:
// 5 convolutions (two grouped), 3 max pools, 2 LRNs, 3 fully connected
// layers, ~61 M parameters, ~1.45 GFLOP per 227x227 image.
func AlexNet() *Network {
	return &Network{
		Name:  "alexnet",
		Input: Shape{C: 3, H: 227, W: 227},
		Layers: []Layer{
			NewConv("conv1", 96, 11, 4, 0, 1),
			&ReLU{"relu1"},
			&LRN{Label: "norm1", Size: 5},
			&Pool{Label: "pool1", K: 3, Stride: 2},
			NewConv("conv2", 256, 5, 1, 2, 2),
			&ReLU{"relu2"},
			&LRN{Label: "norm2", Size: 5},
			&Pool{Label: "pool2", K: 3, Stride: 2},
			NewConv("conv3", 384, 3, 1, 1, 1),
			&ReLU{"relu3"},
			NewConv("conv4", 384, 3, 1, 1, 2),
			&ReLU{"relu4"},
			NewConv("conv5", 256, 3, 1, 1, 2),
			&ReLU{"relu5"},
			&Pool{Label: "pool5", K: 3, Stride: 2},
			NewFC("fc6", 4096),
			&ReLU{"relu6"},
			&Dropout{"drop6"},
			NewFC("fc7", 4096),
			&ReLU{"relu7"},
			&Dropout{"drop7"},
			NewFC("fc8", 1000),
			&Softmax{"prob"},
		},
	}
}

// inception builds one GoogleNet module with the canonical four branches:
// 1x1; 1x1->3x3; 1x1->5x5; maxpool->1x1.
func inception(label string, c1, c3r, c3, c5r, c5, pp int) *Inception {
	return &Inception{
		Label: label,
		Branches: [][]Layer{
			{NewConv(label+"/1x1", c1, 1, 1, 0, 1), &ReLU{label + "/relu_1x1"}},
			{NewConv(label+"/3x3_reduce", c3r, 1, 1, 0, 1), &ReLU{label + "/relu_3x3r"},
				NewConv(label+"/3x3", c3, 3, 1, 1, 1), &ReLU{label + "/relu_3x3"}},
			{NewConv(label+"/5x5_reduce", c5r, 1, 1, 0, 1), &ReLU{label + "/relu_5x5r"},
				NewConv(label+"/5x5", c5, 5, 1, 2, 1), &ReLU{label + "/relu_5x5"}},
			{&Pool{Label: label + "/pool", K: 3, Stride: 1, Pad: 1},
				NewConv(label+"/pool_proj", pp, 1, 1, 0, 1), &ReLU{label + "/relu_pp"}},
		},
	}
}

// GoogleNet builds the Caffe bvlc_googlenet deploy network (Szegedy et
// al., Inception v1) without the training-time auxiliary heads: nine
// inception modules, ~7 M parameters, ~3.2 GFLOP per 224x224 image — the
// paper's second AI workload, the one that most benefits from the TX1
// cluster's CPU:GPU balance (Fig. 10).
func GoogleNet() *Network {
	return &Network{
		Name:  "googlenet",
		Input: Shape{C: 3, H: 224, W: 224},
		Layers: []Layer{
			NewConv("conv1/7x7_s2", 64, 7, 2, 3, 1),
			&ReLU{"conv1/relu"},
			&Pool{Label: "pool1/3x3_s2", K: 3, Stride: 2},
			&LRN{Label: "pool1/norm1", Size: 5},
			NewConv("conv2/3x3_reduce", 64, 1, 1, 0, 1),
			&ReLU{"conv2/relu_reduce"},
			NewConv("conv2/3x3", 192, 3, 1, 1, 1),
			&ReLU{"conv2/relu"},
			&LRN{Label: "conv2/norm2", Size: 5},
			&Pool{Label: "pool2/3x3_s2", K: 3, Stride: 2},
			inception("inception_3a", 64, 96, 128, 16, 32, 32),
			inception("inception_3b", 128, 128, 192, 32, 96, 64),
			&Pool{Label: "pool3/3x3_s2", K: 3, Stride: 2},
			inception("inception_4a", 192, 96, 208, 16, 48, 64),
			inception("inception_4b", 160, 112, 224, 24, 64, 64),
			inception("inception_4c", 128, 128, 256, 24, 64, 64),
			inception("inception_4d", 112, 144, 288, 32, 64, 64),
			inception("inception_4e", 256, 160, 320, 32, 128, 128),
			&Pool{Label: "pool4/3x3_s2", K: 3, Stride: 2},
			inception("inception_5a", 256, 160, 320, 32, 128, 128),
			inception("inception_5b", 384, 192, 384, 48, 128, 128),
			&Pool{Label: "pool5/global", Global: true, K: 7, Stride: 1},
			&Dropout{"pool5/drop"},
			NewFC("loss3/classifier", 1000),
			&Softmax{"prob"},
		},
	}
}
