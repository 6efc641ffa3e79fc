/**
 * @file
 * Feed-forward multilayer perceptron with resilient backpropagation
 * (RPROP+) training. The paper models post-place-and-route effects
 * with "a set of small artificial neural networks ... Each network
 * has three fully connected layers with eleven input nodes, six
 * hidden layer nodes, and a single output node" (Section IV-B2),
 * trained with the Encog library; RPROP is Encog's default trainer.
 * This is a from-scratch replacement with the same topology.
 */

#ifndef DHDL_ML_MLP_HH
#define DHDL_ML_MLP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/rng.hh"

namespace dhdl::ml {

/**
 * Reusable forward-pass scratch. The scalar path uses `a`/`b` as
 * ping-pong activation buffers for one sample; the batch path sizes
 * them as row-major activation matrices (points x layer width). One
 * workspace per evaluating thread; capacity survives across calls so
 * the steady state allocates nothing.
 */
struct MlpWorkspace {
    std::vector<double> a;
    std::vector<double> b;
};

/**
 * Full-batch training scratch for RpropTrainer's fused backprop
 * kernel. Rows are stored feature-major, the forwardBatch() layout:
 * unit k of layer l for row s sits at
 * act[n * (width of layers 0..l-1) + k * n + s], layer 0 being the
 * packed inputs. Packing sizes every buffer for the dataset; the
 * training epochs then allocate nothing.
 */
struct TrainWorkspace {
    size_t n = 0;                  //!< rows in the packed batch
    std::vector<double> act;       //!< every layer's activations
    std::vector<double> y;         //!< targets, feature-major
    std::vector<double> delta;     //!< dE/d(net input), current layer
    std::vector<double> prevDelta; //!< dE/d(net input), layer below
    std::vector<double> grad;      //!< gradient, params() layout
};

/** A dense feed-forward network with tanh hidden units. */
class Mlp
{
  public:
    /**
     * Construct with the given layer sizes, e.g. {11, 6, 1} for the
     * paper's topology. Weights are initialized from the seed.
     */
    Mlp(std::vector<int> layer_sizes, uint64_t seed = 1);

    /** Forward pass; input size must match the first layer. */
    std::vector<double> forward(const std::vector<double>& in) const;

    /**
     * Forward pass into caller-owned ping-pong scratch buffers (no
     * allocation once their capacity is warm). Returns a reference to
     * whichever buffer holds the output layer's activations.
     */
    const std::vector<double>&
    forwardInto(const std::vector<double>& in, std::vector<double>& s0,
                std::vector<double>& s1) const;

    /** forwardInto() against a shared workspace (the two ping-pong
     *  buffers live in `ws` instead of at every call site). */
    const std::vector<double>&
    forwardInto(const std::vector<double>& in, MlpWorkspace& ws) const
    {
        return forwardInto(in, ws.a, ws.b);
    }

    /**
     * Batched forward pass: `in` is a row-major matrix of n input
     * rows (n x input width), `out` receives n output rows (n x
     * output width). Each row goes through exactly the scalar
     * forward-pass arithmetic — same accumulation order, same tanh
     * calls — so a batched prediction is bit-identical to n scalar
     * ones; the batch form only restructures the loops so the (tiny)
     * weight matrix stays hot across the whole batch.
     */
    void forwardBatch(const double* in, size_t n, double* out,
                      MlpWorkspace& ws) const;

    /** Convenience for single-output networks. */
    double predictScalar(const std::vector<double>& in) const;

    /** predictScalar() with reusable scratch (evaluate-many sweeps). */
    double predictScalar(const std::vector<double>& in,
                         std::vector<double>& s0,
                         std::vector<double>& s1) const;

    /** predictScalar() against a shared workspace. */
    double
    predictScalar(const std::vector<double>& in, MlpWorkspace& ws) const
    {
        return predictScalar(in, ws.a, ws.b);
    }

    size_t numWeights() const { return weights_.size(); }
    const std::vector<int>& layers() const { return layers_; }

    /** Flat parameter access for the trainer and for tests. */
    std::vector<double>& params() { return weights_; }
    const std::vector<double>& params() const { return weights_; }

    /**
     * Full-batch mean-squared-error gradient with respect to all
     * parameters (weights and biases): the trainer's fused kernel
     * on a freshly packed workspace.
     */
    std::vector<double>
    gradient(const std::vector<std::vector<double>>& x,
             const std::vector<std::vector<double>>& y) const;

    /** Mean squared error over a dataset. */
    double mse(const std::vector<std::vector<double>>& x,
               const std::vector<std::vector<double>>& y) const;

  private:
    friend class RpropTrainer;

    /**
     * Pack a dataset into `ws` for the fused kernel: x rows of the
     * input width, y rows of the output width, equal non-zero counts
     * (FatalError otherwise).
     */
    void packBatch(const std::vector<std::vector<double>>& x,
                   const std::vector<std::vector<double>>& y,
                   TrainWorkspace& ws) const;

    /**
     * Forward pass of the packed batch, keeping every layer's
     * activations in `ws`; returns the mean squared error.
     */
    double forwardPacked(TrainWorkspace& ws) const;

    /**
     * Backpropagate the activations of the last forwardPacked() (with
     * the current parameters) into ws.grad: the full-batch MSE
     * gradient with respect to all weights and biases.
     */
    void backwardPacked(TrainWorkspace& ws) const;

    /** Weight index of edge (from j in layer l, to i in layer l+1). */
    size_t wIndex(size_t layer, int i, int j) const;
    /** Bias index of unit i in layer l+1. */
    size_t bIndex(size_t layer, int i) const;

    /** Layer l -> l+1 over n feature-major rows: `act` holds the
     *  layer-l activations, `dst` receives layer l+1's. */
    void forwardLayer(size_t l, const double* act, size_t n,
                      double* dst) const;

    std::vector<int> layers_;
    std::vector<size_t> wOffset_; //!< per-layer weight block offsets
    std::vector<size_t> bOffset_; //!< per-layer bias block offsets
    std::vector<double> weights_; //!< weights and biases, flat
};

/** RPROP+ trainer (Riedmiller & Braun) on the full batch. */
class RpropTrainer
{
  public:
    explicit RpropTrainer(Mlp& net);

    /**
     * Run up to max_epochs full-batch updates; stops early once the
     * MSE is at or below tolerance. Returns the final MSE. The dataset
     * is packed once; each epoch is one forward pass (whose MSE is
     * also the stopping test) and one backward pass, and allocates
     * nothing.
     */
    double train(const std::vector<std::vector<double>>& x,
                 const std::vector<std::vector<double>>& y,
                 int max_epochs = 2000, double tolerance = 1e-7);

  private:
    Mlp& net_;
    TrainWorkspace ws_;
    std::vector<double> stepSize_;
    std::vector<double> prevGrad_;
};

} // namespace dhdl::ml

#endif // DHDL_ML_MLP_HH
