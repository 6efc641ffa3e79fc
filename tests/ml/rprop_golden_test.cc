/**
 * Bit-exact pins of RPROP training. Each case trains a fixed network
 * on a fixed synthetic dataset and compares every trained parameter
 * and the returned error by IEEE-754 bit pattern against values
 * recorded from the reference per-sample backprop implementation.
 * Any change to the order of a floating-point reduction in the
 * forward pass, the gradient or the MSE shows up here as a mismatch.
 * The pins are never regenerated: a mismatch is a bug in the trainer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ml/mlp.hh"

namespace dhdl::ml {
namespace {

using Rows = std::vector<std::vector<double>>;

struct Pinned {
    std::vector<uint64_t> params; //!< bit patterns of net.params()
    uint64_t err;                 //!< bit pattern of train()'s result
};

std::string
hexList(const std::vector<double>& v)
{
    std::string s;
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "0x%016llxull,%s",
                      (unsigned long long)std::bit_cast<uint64_t>(v[i]),
                      i % 3 == 2 ? "\n" : " ");
        s += buf;
    }
    return s;
}

void
expectPinned(const Mlp& net, double err, const Pinned& pin)
{
    const auto& w = net.params();
    size_t bad = w.size() == pin.params.size() ? 0 : w.size();
    for (size_t i = 0; !bad && i < w.size(); ++i)
        bad += std::bit_cast<uint64_t>(w[i]) != pin.params[i];
    EXPECT_EQ(bad, 0u) << "trained parameters differ; actual:\n"
                       << hexList(w);
    EXPECT_EQ(std::bit_cast<uint64_t>(err), pin.err)
        << "returned error differs; actual " << hexList({err});
}

/** Calibration shape: 11 design features, 190 rows, one target. */
void
calibrationData(Rows& x, Rows& y)
{
    Rng rng(101);
    for (int s = 0; s < 190; ++s) {
        std::vector<double> r(11);
        for (auto& v : r)
            v = rng.uniform();
        y.push_back({0.5 + 0.3 * std::tanh(2 * r[0] - r[1]) +
                     0.1 * r[2] * r[3] - 0.05 * r[10]});
        x.push_back(std::move(r));
    }
}

/** Surrogate shape: 9 scaled parameter features, 127 rows. */
void
surrogateData(Rows& x, Rows& y)
{
    Rng rng(202);
    for (int s = 0; s < 127; ++s) {
        std::vector<double> r(9);
        for (auto& v : r)
            v = rng.uniform();
        y.push_back({0.2 + 0.6 * r[0] * (1 - r[4]) +
                     0.2 * std::min(r[1], r[7])});
        x.push_back(std::move(r));
    }
}

TEST(RpropGolden, CalibrationShape)
{
    static const Pinned pin = {{
        0xbfd50b15825a5be5ull, 0x3f899db58ef36c6eull, 0xbfebf8402f52449bull,
        0x3fc4546da42a8260ull, 0xbfd6f470a77a9a48ull, 0xbfc3126f60611249ull,
        0xbf983315c515f00full, 0xbfc8b372f8508a05ull, 0x3fc9d4ecc337bfabull,
        0xbfd456c913bcb742ull, 0xbface8ec91c4de7eull, 0xbfe29dbb231794d6ull,
        0xbfc17adffba330d1ull, 0xbffd9d4f98fe31dfull, 0xbfe35aaa688e0611ull,
        0xbfdff9f6927becd7ull, 0xbfc3fcec1ead3e3cull, 0x3fd4289b86759d2eull,
        0xbfdad21b6ec9e41full, 0x3fdc5e88bd83c26eull, 0xbfe51c68c72e44caull,
        0xbfd81f548975053eull, 0xbff6ba96d8ebff34ull, 0x3fe577c5a55b7037ull,
        0x3fc853f7e6d198b0ull, 0xbfe1094fdf496412ull, 0x3fc24562e28db474ull,
        0x3f8c380b5e185886ull, 0xbf9d5b9461e656a7ull, 0x3fc495d1455ba19full,
        0x3fc10e951488ed49ull, 0x3f718addfe617241ull, 0x3fd117cc26acbde6ull,
        0xc006aa7f7f2d4eb8ull, 0x3ff628e461b9ebbaull, 0xbfd8953e144b6633ull,
        0x3fcdd58254f45a72ull, 0xbfcb4e4a4659f6fcull, 0x3fc04580c497631cull,
        0xbfb31248cb543604ull, 0xbfc475e2ceef120full, 0xbfc4ed1a77a26010ull,
        0x3fbefff295c11e44ull, 0xbfc1098af58c096dull, 0xbfd9c11ad027554aull,
        0xbfde0940270398c3ull, 0xbfcbb2c9bcea3902ull, 0xbfa0e6f80e5a5dcbull,
        0xbfd6b3e647e6caecull, 0xbfb2541453ef5d3eull, 0xbfdbbaae29582b90ull,
        0xbfc135e185fa91c5ull, 0x3fd7614f53a2faebull, 0xbfd15ce4d47a03ceull,
        0xbfdcb3878c256ac9ull, 0xbfdb7d25f49964c4ull, 0xbfefd5238b4d4054ull,
        0xbfc418f698623031ull, 0xbfd10a9f0fd14dffull, 0xbfdb707d4676b202ull,
        0xbfb39f9cc072edabull, 0xbfe823a6c1bf4bfaull, 0xbfd096fbe00355f8ull,
        0x3fd84ef9bb0ddacbull, 0xbfda2d660cacfbdeull, 0xbfe608896c5375deull,
        0xbfd2e08574040a60ull, 0x3fc4851a3c6296fdull, 0xbfcf44b3cbd7444aull,
        0x3fd963c3519611c5ull, 0xbfb1298685eff18eull, 0xbfa7c72f242793f8ull,
        0xbfd6f24dbdcc960cull, 0x3fc1a5567e3e887cull, 0xbfc9c1a36fbd1051ull,
        0xbfbee48ac014177cull, 0x3fd812e845f30b3eull, 0xbfe03e701aacfd6eull,
        0x3fc3ae32c925bdeaull,
    }, 0x3f09202b5ad98335ull};
    Rows x, y;
    calibrationData(x, y);
    Mlp net({11, 6, 1}, 0xA11CEull ^ 1);
    const double err = RpropTrainer(net).train(x, y, 600);
    expectPinned(net, err, pin);
}

TEST(RpropGolden, SurrogateShape)
{
    static const Pinned pin = {{
        0x3ff7f2fd733452d9ull, 0xbfb75ccc0a8b237eull, 0x3fb75ce7bab26b19ull,
        0x3fd68f2a27096904ull, 0x3ffee9f5cf57df1dull, 0x3fbf0027bde7fc07ull,
        0xbfcfc0d8b1c0e249ull, 0xbfe20b3ded63adfbull, 0xbfce3ade48a9b4a9ull,
        0x3fde7ab905059bccull, 0xbff1a56ff85b8112ull, 0x3fc00b45eb50d14cull,
        0x3fd355cf93d059bdull, 0x3fb714056e848e6eull, 0x3fcade59a294347bull,
        0xbfca39f1ffa63860ull, 0x3ff533a7e6c90512ull, 0xbf9d23da75d8adf6ull,
        0x3fe1d726e9b25590ull, 0xbfdd9e0ac51fb92bull, 0xbfe28dc019ddf10full,
        0x3fdac9da14574c4cull, 0xbfcc94b9c05028c8ull, 0xbf92f567e68008e2ull,
        0x3fb2f75e009a8030ull, 0x3fcb12e7c61f51ebull, 0x3fd164b3334f781full,
        0x3fd88aa04cc377a2ull, 0x3fddd1c61ce07f16ull, 0x3fc3460ad38f2f94ull,
        0xbfdd25813dd821aeull, 0x3fc1e54252c32b57ull, 0x3fd75b5a7c443000ull,
        0xbfaa32dfb877afabull, 0x3fce6e3c4c268f3cull, 0x3fa12728348a3c01ull,
        0xbff48641fda93bd2ull, 0x3fc91c6ee39fdbaaull, 0xbfda9b0e350b67d0ull,
        0x3fc47ff8d3d8cebcull, 0x3feba83287b04d75ull, 0xbfe678855b75dcbbull,
        0xbfd7aaae9e317405ull, 0xbfd4f49f292517e5ull, 0x3fd3de3e0bdd25c2ull,
        0xbfbbd96ba0e326a5ull, 0xbf92a61c4046576cull, 0x3fdc8502568a4fd7ull,
        0xbfd8547dcb1502baull, 0x3fdea21d159bf630ull, 0xbfbe30a4f0c10593ull,
        0xbfd1760242ceda09ull, 0x3fc5567e2ac2f6bbull, 0xbfcd9e52e97212f5ull,
        0xbfe3e30e8dad526aull, 0x3fb3abe6c43a60a9ull, 0xbfcb89d4595741f2ull,
        0xbf9c97f5773a7da9ull, 0x3ff4f86e9f4535d3ull, 0x3fc273ffc14ce971ull,
        0xbfcb34eef76d5660ull, 0x3fd191dc29eafbb5ull, 0xbfe339ff3276c224ull,
        0xbfe61eefaf4c463eull, 0xbfcafc923a1a3170ull, 0x3f90fb753584100aull,
        0x3f9a66504b872d02ull, 0x3ff3f7ffbabe52f1ull, 0x3fd346376418e2f1ull,
        0xbf743b328379b68eull, 0xbfd792a5301fd804ull, 0x3fd672608dcdc1d5ull,
        0x3fcaeadc40e6f2e2ull, 0x3fdc68d89d7f7511ull, 0x3fc8df39a7ceae7full,
        0xbfc4b16363e30497ull, 0x3fc2a1ee7cbd69a9ull, 0xbfbdb9906723daf2ull,
        0x3fd9bf343145cb5full, 0x3fbd9465b3293520ull, 0x3fd01adb292b5b54ull,
        0x3fca14028669b1fdull, 0xbfc2efef8b365d01ull, 0x3fd1a8d809b241f1ull,
        0x3fbab055578197feull, 0xbfd027d4094a60faull, 0xbfbe6f5a5b89fbefull,
        0xbfd3eb226e926a52ull, 0x3fc4d6a2fe692d84ull,
    }, 0x3f35545ee763c909ull};
    Rows x, y;
    surrogateData(x, y);
    Mlp net({9, 8, 1}, hashMix(0xB0D31ull));
    const double err = RpropTrainer(net).train(x, y, 200);
    expectPinned(net, err, pin);
}

TEST(RpropGolden, MultiOutput)
{
    static const Pinned pin = {{
        0xbf7a7495af733843ull, 0xbfdab524a2325409ull, 0xbfe3b6433576f6d9ull,
        0xbffa5cd22d18f3f4ull, 0x3ff774ad826fe6d9ull, 0x3fbb852ccab0cd4aull,
        0x3fb5216d9d2274d0ull, 0xbfedb0d5af8aeba9ull, 0xbfd037ef0bb47151ull,
        0xbf72b1a2dab7f01aull, 0x3fe0d6021e98616cull, 0x3fe0b65f5224052bull,
        0x3fb54e7727c5ccf5ull, 0x3fdd5c856ef1b7d3ull, 0xbfe2e66001d30047ull,
        0x3f9f46779d6afad2ull, 0xbfe34610ae71446dull, 0x3fe48ffe238ef2ccull,
        0xbfe3df79e57bc2a0ull, 0xbfbab20637dcf7d7ull, 0xbfbcca1a049bb1bdull,
        0xbfe00124fb5861b2ull, 0xbfe7844663e64a22ull, 0x3fc6253ec6d8d5e8ull,
        0x3fdeb1544f705c06ull, 0xbfcd1d95c5e26bb0ull, 0xbfab03a6e72aacc3ull,
        0xbfe00dff763f1778ull, 0x3ff4643b66a50a6full, 0xbfd01a6a79831af7ull,
        0x3fbb1b636444fc6dull, 0x3fe0351e90e1e289ull,
    }, 0x3f40358244aeef03ull};
    Rows x, y;
    Rng rng(2);
    for (int i = 0; i < 30; ++i) {
        double a = rng.uniform(), b = rng.uniform(), c = rng.uniform();
        x.push_back({a, b, c});
        y.push_back({a * b, b + c - 0.5});
    }
    Mlp net({3, 5, 2}, 19);
    const double err = RpropTrainer(net).train(x, y, 500);
    expectPinned(net, err, pin);
}

TEST(RpropGolden, EarlyStopAtTolerance)
{
    // Stops well before max_epochs: pins the epoch at which the error
    // first drops below the tolerance, and the error it reports.
    static const Pinned pin = {{
        0xbfd8251edbb12e30ull, 0x3fcad36f9b6de3b3ull, 0x3fba8b78fa700b1dull,
        0xbfdbee42ac3e667cull, 0xbfd2838338d169a2ull, 0x3fc0b46e52fc6095ull,
        0xbfe198396842c254ull, 0x3fca142b4e7d59fcull, 0xbfc98e3f530551c7ull,
        0x3fc951f315678afbull, 0x3fca21a851f41949ull, 0x3fcbda6410205d31ull,
        0xbf94347e472698feull, 0xbfc501571f830aaaull, 0x3fc9eb2172c74b16ull,
        0x3fc1f703526dbdfcull, 0xbfd934b458ee7034ull, 0xbfd8658eb9d50496ull,
        0xbfd63b74a1efc58full, 0x3fb8e728cb490881ull, 0xbfd86cbe30ac9a77ull,
        0x3fb1871d3870db5eull, 0xbfd5a2b4a78af5efull, 0x3fd62cbd3797c1a4ull,
        0x3fbf51198e7516d0ull,
    }, 0x3f4a5def4077bf2aull};
    Rows x, y;
    for (double a = 0; a <= 1.0; a += 0.25) {
        for (double b = 0; b <= 1.0; b += 0.25) {
            x.push_back({a, b});
            y.push_back({0.3 * a - 0.2 * b + 0.1});
        }
    }
    Mlp net({2, 6, 1}, 3);
    const double err = RpropTrainer(net).train(x, y, 1500, 1e-3);
    EXPECT_LT(err, 1e-3);
    expectPinned(net, err, pin);
}

} // namespace
} // namespace dhdl::ml
