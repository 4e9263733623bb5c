//! Internal builder the per-network modules use to assemble layers with
//! synthetic weights and correctly-chained halos.

use crate::layer::{Layer, LayerType, Op};
use crate::network::{InputSlot, InputSpec, Network, NetworkKind, Preset};
use crate::Result;
use tango_kernels::{
    BatchNorm, Conv2d, DepthwiseConv2d, DeviceTensor, EltwiseAdd, FullyConnected, GlobalAvgPool, Lrn,
    MaxPool2d, Relu, ScaleLayer, Softmax,
};
use tango_sim::Gpu;
use tango_tensor::SplitMix64;

pub(crate) struct NetBuilder<'g> {
    pub gpu: &'g mut Gpu,
    rng: SplitMix64,
    layers: Vec<Layer>,
    cur: DeviceTensor,
    input: DeviceTensor,
    weight_bytes: u64,
}

impl<'g> NetBuilder<'g> {
    /// Starts a network with a `c x h x w` image input whose halo covers
    /// the first convolution's padding.
    pub fn image_input(gpu: &'g mut Gpu, seed: u64, c: u32, h: u32, w: u32, pad: u32) -> Self {
        let input = DeviceTensor::alloc(gpu, c, h, w, pad);
        NetBuilder {
            gpu,
            rng: SplitMix64::new(seed),
            layers: Vec::new(),
            cur: input,
            input,
            weight_bytes: 0,
        }
    }

    /// The current activation tensor.
    pub fn cur(&self) -> DeviceTensor {
        self.cur
    }

    /// Redirects the chain (used after assembling parallel branches).
    pub fn set_cur(&mut self, t: DeviceTensor) {
        self.cur = t;
    }

    /// Allocates an activation tensor without linking it into the chain.
    pub fn alloc(&mut self, c: u32, h: u32, w: u32, pad: u32) -> DeviceTensor {
        DeviceTensor::alloc(self.gpu, c, h, w, pad)
    }

    /// Uploads a synthetic Xavier-initialized weight buffer.
    pub fn xavier_weights(&mut self, len: usize, fan_in: usize) -> u32 {
        self.weight_bytes += (len * 4) as u64;
        let rng = &mut self.rng;
        self.gpu.upload_f32s_with(len, || rng.xavier(fan_in))
    }

    /// Uploads a synthetic uniform buffer (biases, norm statistics).
    pub fn uniform_weights(&mut self, len: usize, lo: f32, hi: f32) -> u32 {
        self.weight_bytes += (len * 4) as u64;
        let rng = &mut self.rng;
        self.gpu.upload_f32s_with(len, || rng.uniform(lo, hi))
    }

    fn push(&mut self, name: &str, layer_type: LayerType, op: Op) {
        self.layers.push(Layer {
            name: name.to_string(),
            layer_type,
            op,
        });
    }

    /// Appends a convolution on the current activation; the output halo is
    /// `out_pad` (the next convolution's padding).
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        name: &str,
        layer_type: LayerType,
        c_out: u32,
        k: u32,
        stride: u32,
        pad: u32,
        relu: bool,
        out_pad: u32,
    ) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = Conv2d::new(input.channels(), input.height(), input.width(), c_out, k, k, stride, pad, relu)?;
        let output = self.alloc(c_out, kernel.h_out(), kernel.w_out(), out_pad);
        self.conv_between(name, layer_type, &kernel, input, output)?;
        self.cur = output;
        Ok(output)
    }

    /// Appends a depthwise convolution (MobileNet's spatial filter).
    pub fn dw_conv(&mut self, name: &str, k: u32, stride: u32, pad: u32, relu: bool, out_pad: u32) -> Result<DeviceTensor> {
        let input = self.cur;
        let c = input.channels();
        let kernel = DepthwiseConv2d::new(c, input.height(), input.width(), k, stride, pad, relu)?;
        let weights = self.xavier_weights(kernel.weight_len(), (k * k) as usize);
        let bias = self.uniform_weights(c as usize, -0.05, 0.05);
        let output = self.alloc(c, kernel.h_out(), kernel.w_out(), out_pad);
        self.push(
            name,
            LayerType::Conv,
            Op::DwConv {
                kernel,
                weights,
                bias,
                input,
                output,
            },
        );
        self.cur = output;
        Ok(output)
    }

    /// Appends a single-block channel-loop convolution (the paper's
    /// CifarNet mapping).
    #[allow(clippy::too_many_arguments)]
    pub fn conv_single_block(
        &mut self,
        name: &str,
        layer_type: LayerType,
        c_out: u32,
        k: u32,
        stride: u32,
        pad: u32,
        relu: bool,
        out_pad: u32,
    ) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = Conv2d::new_single_block(
            input.channels(),
            input.height(),
            input.width(),
            c_out,
            k,
            k,
            stride,
            pad,
            relu,
        )?;
        let output = self.alloc(c_out, kernel.h_out(), kernel.w_out(), out_pad);
        self.conv_between(name, layer_type, &kernel, input, output)?;
        self.cur = output;
        Ok(output)
    }

    /// Appends a single-block channel-loop max-pooling layer (CifarNet).
    pub fn max_pool_single_block(&mut self, name: &str, window: u32, stride: u32, out_pad: u32) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = MaxPool2d::new_single_block(input.channels(), input.height(), input.width(), window, stride)?;
        let output = self.alloc(input.channels(), kernel.h_out(), kernel.w_out(), out_pad);
        self.push(
            name,
            LayerType::Pool,
            Op::MaxPool {
                kernel,
                input,
                output,
            },
        );
        self.cur = output;
        Ok(output)
    }

    /// Appends a convolution between explicit tensors (channel slices for
    /// grouped convolutions and fire modules). Does not move the chain.
    pub fn conv_between(
        &mut self,
        name: &str,
        layer_type: LayerType,
        kernel: &Conv2d,
        input: DeviceTensor,
        output: DeviceTensor,
    ) -> Result<()> {
        let fan_in = kernel.weight_len() / kernel.c_out() as usize;
        let weights = self.xavier_weights(kernel.weight_len(), fan_in);
        let bias = self.uniform_weights(kernel.c_out() as usize, -0.05, 0.05);
        self.push(
            name,
            layer_type,
            Op::Conv {
                kernel: kernel.clone(),
                weights,
                bias,
                input,
                output,
            },
        );
        Ok(())
    }

    /// Appends a max-pooling layer.
    pub fn max_pool(&mut self, name: &str, window: u32, stride: u32, out_pad: u32) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = MaxPool2d::new(input.channels(), input.height(), input.width(), window, stride)?;
        let output = self.alloc(input.channels(), kernel.h_out(), kernel.w_out(), out_pad);
        self.push(
            name,
            LayerType::Pool,
            Op::MaxPool {
                kernel,
                input,
                output,
            },
        );
        self.cur = output;
        Ok(output)
    }

    /// Appends a local response normalization layer.
    pub fn lrn(&mut self, name: &str, out_pad: u32) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = Lrn::new(input.channels(), input.height(), input.width())?;
        let output = self.alloc(input.channels(), input.height(), input.width(), out_pad);
        self.push(name, LayerType::Norm, Op::Lrn { kernel, input, output });
        self.cur = output;
        Ok(output)
    }

    /// Appends an inference batch-normalization layer with synthetic
    /// running statistics.
    pub fn batch_norm(&mut self, name: &str, out_pad: u32) -> Result<DeviceTensor> {
        let input = self.cur;
        let c = input.channels();
        let kernel = BatchNorm::new(c, input.height(), input.width())?;
        let mean = self.uniform_weights(c as usize, -0.1, 0.1);
        let var = self.uniform_weights(c as usize, 0.5, 1.5);
        let output = self.alloc(c, input.height(), input.width(), out_pad);
        self.push(
            name,
            LayerType::Norm,
            Op::BatchNorm {
                kernel,
                mean,
                var,
                input,
                output,
            },
        );
        self.cur = output;
        Ok(output)
    }

    /// Appends a per-channel scale layer with synthetic coefficients.
    pub fn scale(&mut self, name: &str, out_pad: u32) -> Result<DeviceTensor> {
        let input = self.cur;
        let c = input.channels();
        let kernel = ScaleLayer::new(c, input.height(), input.width())?;
        let gamma = self.uniform_weights(c as usize, 0.8, 1.2);
        let beta = self.uniform_weights(c as usize, -0.1, 0.1);
        let output = self.alloc(c, input.height(), input.width(), out_pad);
        self.push(
            name,
            LayerType::Scale,
            Op::Scale {
                kernel,
                gamma,
                beta,
                input,
                output,
            },
        );
        self.cur = output;
        Ok(output)
    }

    /// Appends a standalone ReLU layer.
    pub fn relu(&mut self, name: &str, out_pad: u32) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = Relu::new(input.channels(), input.height(), input.width())?;
        let output = self.alloc(input.channels(), input.height(), input.width(), out_pad);
        self.push(name, LayerType::Relu, Op::Relu { kernel, input, output });
        self.cur = output;
        Ok(output)
    }

    /// Appends an elementwise shortcut addition of `a` and `b`.
    pub fn eltwise(&mut self, name: &str, a: DeviceTensor, b: DeviceTensor, out_pad: u32) -> Result<DeviceTensor> {
        let kernel = EltwiseAdd::new(a.channels(), a.height(), a.width())?;
        let output = self.alloc(a.channels(), a.height(), a.width(), out_pad);
        self.push(name, LayerType::Eltwise, Op::Eltwise { kernel, a, b, output });
        self.cur = output;
        Ok(output)
    }

    /// Appends a fully-connected layer over the flattened current
    /// activation, launched as blocks of `block_x` threads.
    pub fn fc(&mut self, name: &str, out_features: u32, block_x: u32, relu: bool) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = FullyConnected::new(
            input.channels(),
            input.height(),
            input.width(),
            out_features,
            block_x,
            relu,
        )?;
        let in_features = (input.channels() * input.height() * input.width()) as usize;
        let weights = self.xavier_weights(kernel.weight_len(), in_features);
        let bias = self.uniform_weights(out_features as usize, -0.05, 0.05);
        let output = DeviceTensor::alloc_vector(self.gpu, out_features);
        self.push(
            name,
            LayerType::Fc,
            Op::Fc {
                kernel,
                weights,
                bias,
                input,
                output,
            },
        );
        self.cur = output;
        Ok(output)
    }

    /// Appends a global average pooling layer producing a channel vector.
    pub fn global_pool(&mut self, name: &str) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = GlobalAvgPool::new(input.channels(), input.height(), input.width())?;
        let output = DeviceTensor::alloc_vector(self.gpu, input.channels());
        self.push(
            name,
            LayerType::Pool,
            Op::GlobalPool {
                kernel,
                input,
                output,
            },
        );
        self.cur = output;
        Ok(output)
    }

    /// Appends a softmax over the current class-score vector.
    pub fn softmax(&mut self, name: &str) -> Result<DeviceTensor> {
        let input = self.cur;
        let kernel = Softmax::new(input.len())?;
        let output = DeviceTensor::alloc_vector(self.gpu, input.len());
        self.push(name, LayerType::Softmax, Op::Softmax { kernel, input, output });
        self.cur = output;
        Ok(output)
    }

    /// Direct access to push RNN step layers (built by `rnn.rs`).
    pub fn push_layer(&mut self, name: &str, layer_type: LayerType, op: Op) {
        self.push(name, layer_type, op);
    }

    /// Seals the network.
    pub fn finish(self, kind: NetworkKind, preset: Preset) -> Network {
        let input = self.input;
        let spec = InputSpec::Image {
            c: input.channels(),
            h: input.height(),
            w: input.width(),
        };
        Network {
            kind,
            preset,
            layers: self.layers,
            input_slot: InputSlot::Image(input),
            input_spec: spec,
            output: self.cur,
            weight_bytes: self.weight_bytes,
        }
    }

    /// Seals an RNN network with sequence input slots.
    pub fn finish_sequence(self, kind: NetworkKind, preset: Preset, slots: Vec<DeviceTensor>, dim: u32) -> Network {
        let spec = InputSpec::Sequence {
            len: slots.len() as u32,
            dim,
        };
        Network {
            kind,
            preset,
            layers: self.layers,
            input_slot: InputSlot::Sequence(slots),
            input_spec: spec,
            output: self.cur,
            weight_bytes: self.weight_bytes,
        }
    }
}
