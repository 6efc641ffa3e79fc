#include "ml/mlp.hh"

#include <algorithm>
#include <cmath>

#include "core/error.hh"

namespace dhdl::ml {

Mlp::Mlp(std::vector<int> layer_sizes, uint64_t seed)
    : layers_(std::move(layer_sizes))
{
    require(layers_.size() >= 2, "MLP needs at least two layers");
    size_t total = 0;
    for (size_t l = 0; l + 1 < layers_.size(); ++l) {
        wOffset_.push_back(total);
        total += size_t(layers_[l]) * size_t(layers_[l + 1]);
        bOffset_.push_back(total);
        total += size_t(layers_[l + 1]);
    }
    weights_.resize(total);
    Rng rng(seed);
    for (auto& w : weights_)
        w = rng.uniform(-0.5, 0.5);
}

size_t
Mlp::wIndex(size_t layer, int i, int j) const
{
    return wOffset_[layer] + size_t(i) * size_t(layers_[layer]) +
           size_t(j);
}

size_t
Mlp::bIndex(size_t layer, int i) const
{
    return bOffset_[layer] + size_t(i);
}

std::vector<double>
Mlp::forward(const std::vector<double>& in) const
{
    MlpWorkspace ws;
    return forwardInto(in, ws);
}

const std::vector<double>&
Mlp::forwardInto(const std::vector<double>& in, std::vector<double>& s0,
                 std::vector<double>& s1) const
{
    require(int(in.size()) == layers_.front(), "MLP input arity");
    const std::vector<double>* act = &in;
    std::vector<double>* cur = &s0;
    std::vector<double>* other = &s1;
    for (size_t l = 0; l + 1 < layers_.size(); ++l) {
        cur->assign(size_t(layers_[l + 1]), 0.0);
        bool last = l + 2 == layers_.size();
        for (int i = 0; i < layers_[l + 1]; ++i) {
            double s = weights_[bIndex(l, i)];
            for (int j = 0; j < layers_[l]; ++j)
                s += weights_[wIndex(l, i, j)] * (*act)[size_t(j)];
            (*cur)[size_t(i)] = last ? s : std::tanh(s);
        }
        act = cur;
        std::swap(cur, other);
    }
    return *act;
}

void
Mlp::forwardLayer(size_t l, const double* act, size_t n,
                  double* dst) const
{
    // Feature-major activations: row j of `act` holds feature j of
    // all n points, so each weight's contribution sweeps a contiguous
    // row of the batch (vectorizable). Per point the arithmetic is
    // the exact scalar loop nest — the sum starts at the bias, adds
    // the weighted features in ascending j, and applies tanh on
    // hidden layers — so every activation bit matches forwardInto();
    // only the loop interchange across points differs.
    const size_t act_w = size_t(layers_[l]);
    const size_t next_w = size_t(layers_[l + 1]);
    const bool last = l + 2 == layers_.size();
    const double* W = weights_.data() + wOffset_[l];
    const double* B = weights_.data() + bOffset_[l];
    for (size_t i = 0; i < next_w; ++i) {
        const double* wi = W + i * act_w;
        double* di = dst + i * n;
        const double bi = B[i];
        for (size_t p = 0; p < n; ++p)
            di[p] = bi;
        for (size_t j = 0; j < act_w; ++j) {
            const double wij = wi[j];
            const double* aj = act + j * n;
            for (size_t p = 0; p < n; ++p)
                di[p] += wij * aj[p];
        }
        if (!last)
            for (size_t p = 0; p < n; ++p)
                di[p] = std::tanh(di[p]);
    }
}

void
Mlp::forwardBatch(const double* in, size_t n, double* out,
                  MlpWorkspace& ws) const
{
    size_t maxw = 0;
    for (int w : layers_)
        maxw = std::max(maxw, size_t(w));
    ws.a.resize(n * maxw);
    ws.b.resize(n * maxw);

    size_t act_w = size_t(layers_.front());
    double* cur = ws.b.data();
    double* other = ws.a.data();
    for (size_t j = 0; j < act_w; ++j)
        for (size_t p = 0; p < n; ++p)
            other[j * n + p] = in[p * act_w + j];
    const double* act = other;
    for (size_t l = 0; l + 1 < layers_.size(); ++l) {
        act_w = size_t(layers_[l + 1]);
        // A single-output final layer lands feature-major and
        // point-major alike; write it straight into `out`.
        double* dst =
            (l + 2 == layers_.size() && act_w == 1) ? out : cur;
        forwardLayer(l, act, n, dst);
        act = dst;
        if (dst == cur)
            std::swap(cur, other);
    }
    if (act != out)
        for (size_t p = 0; p < n; ++p)
            for (size_t i = 0; i < act_w; ++i)
                out[p * act_w + i] = act[i * n + p];
}

double
Mlp::predictScalar(const std::vector<double>& in) const
{
    auto out = forward(in);
    invariant(out.size() == 1, "predictScalar on multi-output net");
    return out.front();
}

double
Mlp::predictScalar(const std::vector<double>& in,
                   std::vector<double>& s0, std::vector<double>& s1) const
{
    const auto& out = forwardInto(in, s0, s1);
    invariant(out.size() == 1, "predictScalar on multi-output net");
    return out.front();
}

void
Mlp::packBatch(const std::vector<std::vector<double>>& x,
               const std::vector<std::vector<double>>& y,
               TrainWorkspace& ws) const
{
    require(x.size() == y.size() && !x.empty(),
            "training needs matching, non-empty x and y");
    const size_t n = x.size();
    const size_t in_w = size_t(layers_.front());
    const size_t out_w = size_t(layers_.back());
    size_t units = 0, maxw = 0;
    for (size_t l = 0; l < layers_.size(); ++l) {
        units += size_t(layers_[l]);
        if (l > 0)
            maxw = std::max(maxw, size_t(layers_[l]));
    }
    ws.n = n;
    ws.act.resize(n * units);
    ws.y.resize(n * out_w);
    ws.delta.resize(n * maxw);
    ws.prevDelta.resize(n * maxw);
    ws.grad.resize(weights_.size());
    for (size_t s = 0; s < n; ++s) {
        require(x[s].size() == in_w, "MLP input arity");
        require(y[s].size() == out_w, "MLP target arity");
        for (size_t j = 0; j < in_w; ++j)
            ws.act[j * n + s] = x[s][j];
        for (size_t i = 0; i < out_w; ++i)
            ws.y[i * n + s] = y[s][i];
    }
}

double
Mlp::forwardPacked(TrainWorkspace& ws) const
{
    const size_t n = ws.n;
    double* act = ws.act.data();
    for (size_t l = 0; l + 1 < layers_.size(); ++l) {
        double* next = act + n * size_t(layers_[l]);
        forwardLayer(l, act, n, next);
        act = next;
    }
    // Samples outer, outputs inner: the per-sample accumulation
    // order of the scalar definition.
    const size_t out_w = size_t(layers_.back());
    double total = 0.0;
    for (size_t s = 0; s < n; ++s)
        for (size_t i = 0; i < out_w; ++i) {
            const double e = act[i * n + s] - ws.y[i * n + s];
            total += e * e;
        }
    return total / double(n * out_w);
}

void
Mlp::backwardPacked(TrainWorkspace& ws) const
{
    // Per-sample backprop summed over the batch, restructured so the
    // loops over samples are innermost. Every sum keeps the order of
    // the per-sample definition: a gradient entry adds one term per
    // sample in ascending s from 0.0, and a hidden unit's delta adds
    // the upper layer's terms in ascending unit order from 0.0. Only
    // independent samples run side by side, so the result is
    // bit-identical to accumulating sample after sample.
    const size_t n = ws.n;
    const size_t nl = layers_.size();
    const size_t out_w = size_t(layers_.back());
    size_t off = ws.act.size() - n * out_w; // output layer offset
    const double* out = ws.act.data() + off;
    double* d = ws.delta.data();
    double* pd = ws.prevDelta.data();
    const double scale = double(n * out_w);
    for (size_t k = 0; k < n * out_w; ++k)
        d[k] = 2.0 * (out[k] - ws.y[k]) / scale;

    for (size_t l = nl - 1; l-- > 0;) {
        const size_t in_w = size_t(layers_[l]);
        const size_t up_w = size_t(layers_[l + 1]);
        off -= n * in_w;
        const double* a = ws.act.data() + off;
        const double* W = weights_.data() + wOffset_[l];
        double* gw = ws.grad.data() + wOffset_[l];
        double* gb = ws.grad.data() + bOffset_[l];
        for (size_t i = 0; i < up_w; ++i) {
            const double* di = d + i * n;
            double sb = 0.0;
            for (size_t s = 0; s < n; ++s)
                sb += di[s];
            gb[i] = sb;
            // Four independent per-weight chains at a time.
            double* gi = gw + i * in_w;
            size_t j = 0;
            for (; j + 4 <= in_w; j += 4) {
                const double* a0 = a + j * n;
                const double* a1 = a0 + n;
                const double* a2 = a1 + n;
                const double* a3 = a2 + n;
                double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                for (size_t s = 0; s < n; ++s) {
                    const double ds = di[s];
                    s0 += ds * a0[s];
                    s1 += ds * a1[s];
                    s2 += ds * a2[s];
                    s3 += ds * a3[s];
                }
                gi[j] = s0;
                gi[j + 1] = s1;
                gi[j + 2] = s2;
                gi[j + 3] = s3;
            }
            for (; j < in_w; ++j) {
                const double* aj = a + j * n;
                double sj = 0.0;
                for (size_t s = 0; s < n; ++s)
                    sj += di[s] * aj[s];
                gi[j] = sj;
            }
        }
        if (l == 0)
            break; // the inputs need no delta
        for (size_t j = 0; j < in_w; ++j) {
            double* pj = pd + j * n;
            for (size_t s = 0; s < n; ++s)
                pj[s] = 0.0;
            for (size_t i = 0; i < up_w; ++i) {
                const double wij = W[i * in_w + j];
                const double* di = d + i * n;
                for (size_t s = 0; s < n; ++s)
                    pj[s] += di[s] * wij;
            }
            // Apply tanh' of the hidden activation.
            const double* aj = a + j * n;
            for (size_t s = 0; s < n; ++s)
                pj[s] *= (1.0 - aj[s] * aj[s]);
        }
        std::swap(d, pd);
    }
}

std::vector<double>
Mlp::gradient(const std::vector<std::vector<double>>& x,
              const std::vector<std::vector<double>>& y) const
{
    TrainWorkspace ws;
    packBatch(x, y, ws);
    forwardPacked(ws);
    backwardPacked(ws);
    return std::move(ws.grad);
}

double
Mlp::mse(const std::vector<std::vector<double>>& x,
         const std::vector<std::vector<double>>& y) const
{
    TrainWorkspace ws;
    packBatch(x, y, ws);
    return forwardPacked(ws);
}

RpropTrainer::RpropTrainer(Mlp& net)
    : net_(net), stepSize_(net.numWeights(), 0.1),
      prevGrad_(net.numWeights(), 0.0)
{
}

double
RpropTrainer::train(const std::vector<std::vector<double>>& x,
                    const std::vector<std::vector<double>>& y,
                    int max_epochs, double tolerance)
{
    constexpr double eta_plus = 1.2;
    constexpr double eta_minus = 0.5;
    constexpr double step_max = 50.0;
    constexpr double step_min = 1e-9;

    // The forward pass that measures an epoch's error also holds the
    // activations the next epoch's backward pass reads.
    net_.packBatch(x, y, ws_);
    double err = net_.forwardPacked(ws_);
    for (int epoch = 0; epoch < max_epochs && err > tolerance; ++epoch) {
        net_.backwardPacked(ws_);
        auto& grad = ws_.grad;
        auto& w = net_.params();
        for (size_t i = 0; i < w.size(); ++i) {
            double sign = prevGrad_[i] * grad[i];
            if (sign > 0) {
                stepSize_[i] = std::min(stepSize_[i] * eta_plus,
                                        step_max);
            } else if (sign < 0) {
                stepSize_[i] = std::max(stepSize_[i] * eta_minus,
                                        step_min);
                grad[i] = 0.0; // RPROP+: skip update after sign flip
            }
            if (grad[i] > 0)
                w[i] -= stepSize_[i];
            else if (grad[i] < 0)
                w[i] += stepSize_[i];
            prevGrad_[i] = grad[i];
        }
        err = net_.forwardPacked(ws_);
    }
    return err;
}

} // namespace dhdl::ml
