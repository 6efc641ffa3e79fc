#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hh"
#include "ml/mlp.hh"

namespace dhdl::ml {
namespace {

TEST(MlpTest, TopologyWeightCount)
{
    // Paper topology: 11 inputs, 6 hidden, 1 output.
    Mlp net({11, 6, 1});
    EXPECT_EQ(net.numWeights(), size_t(11 * 6 + 6 + 6 * 1 + 1));
}

TEST(MlpTest, ForwardDeterministicPerSeed)
{
    Mlp a({3, 4, 2}, 7), b({3, 4, 2}, 7);
    auto ya = a.forward({0.1, -0.2, 0.3});
    auto yb = b.forward({0.1, -0.2, 0.3});
    EXPECT_EQ(ya, yb);
    Mlp c({3, 4, 2}, 8);
    EXPECT_NE(c.forward({0.1, -0.2, 0.3}), ya);
}

TEST(MlpTest, InputArityIsFatal)
{
    Mlp net({3, 2, 1});
    EXPECT_THROW(net.forward({1.0}), FatalError);
}

TEST(MlpTest, GradientMatchesFiniteDifferences)
{
    Mlp net({2, 3, 1}, 21);
    std::vector<std::vector<double>> x{{0.3, -0.7}, {0.9, 0.2}};
    std::vector<std::vector<double>> y{{0.5}, {-0.1}};
    auto grad = net.gradient(x, y);
    const double eps = 1e-6;
    for (size_t i = 0; i < net.numWeights(); i += 3) {
        double orig = net.params()[i];
        net.params()[i] = orig + eps;
        double up = net.mse(x, y);
        net.params()[i] = orig - eps;
        double down = net.mse(x, y);
        net.params()[i] = orig;
        double fd = (up - down) / (2 * eps);
        EXPECT_NEAR(grad[i], fd, 1e-5) << "weight " << i;
    }
}

TEST(MlpTest, GradientMatchesFiniteDifferencesTwoHiddenLayers)
{
    // Two hidden layers and two outputs: every delta hand-off of the
    // backward pass, including hidden-to-hidden.
    Mlp net({3, 4, 3, 2}, 29);
    std::vector<std::vector<double>> x, y;
    Rng rng(4);
    for (int s = 0; s < 5; ++s) {
        x.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1)});
        y.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
    }
    auto grad = net.gradient(x, y);
    ASSERT_EQ(grad.size(), net.numWeights());
    const double eps = 1e-6;
    for (size_t i = 0; i < net.numWeights(); ++i) {
        double orig = net.params()[i];
        net.params()[i] = orig + eps;
        double up = net.mse(x, y);
        net.params()[i] = orig - eps;
        double down = net.mse(x, y);
        net.params()[i] = orig;
        EXPECT_NEAR(grad[i], (up - down) / (2 * eps), 1e-5)
            << "weight " << i;
    }
}

TEST(MlpTest, TrainerRejectsMalformedDatasets)
{
    Mlp net({2, 3, 1}, 5);
    const auto before = net.params();
    using Rows = std::vector<std::vector<double>>;
    auto train = [&](const Rows& x, const Rows& y) {
        RpropTrainer(net).train(x, y, 10);
    };
    EXPECT_THROW(train({}, {}), FatalError);
    EXPECT_THROW(train({{0.1, 0.2}, {0.3, 0.4}}, {{0.5}}), FatalError);
    EXPECT_THROW(train({{0.1, 0.2}, {0.3}}, {{0.5}, {0.6}}),
                 FatalError);
    EXPECT_THROW(train({{0.1, 0.2}}, {{0.5, 0.6}}), FatalError);
    EXPECT_THROW(net.gradient({}, {}), FatalError);
    EXPECT_THROW(net.mse({{0.1}}, {{0.5}}), FatalError);
    // A rejected dataset never reaches the weights.
    EXPECT_EQ(net.params(), before);
}

TEST(MlpTest, LearnsLinearFunction)
{
    Mlp net({2, 6, 1}, 3);
    std::vector<std::vector<double>> x, y;
    for (double a = 0; a <= 1.0; a += 0.25) {
        for (double b = 0; b <= 1.0; b += 0.25) {
            x.push_back({a, b});
            y.push_back({0.3 * a - 0.2 * b + 0.1});
        }
    }
    RpropTrainer t(net);
    double err = t.train(x, y, 1500);
    EXPECT_LT(err, 1e-4);
}

TEST(MlpTest, LearnsQuadratic)
{
    // The paper cites universal approximation including polynomials;
    // check a quadratic is learnable to decent precision.
    Mlp net({1, 6, 1}, 5);
    std::vector<std::vector<double>> x, y;
    for (double a = -1.0; a <= 1.0; a += 0.1) {
        x.push_back({a});
        y.push_back({a * a});
    }
    RpropTrainer t(net);
    double err = t.train(x, y, 3000);
    EXPECT_LT(err, 5e-4);
    EXPECT_NEAR(net.predictScalar({0.5}), 0.25, 0.05);
}

TEST(MlpTest, LearnsXor)
{
    Mlp net({2, 6, 1}, 11);
    std::vector<std::vector<double>> x{
        {0, 0}, {0, 1}, {1, 0}, {1, 1}};
    std::vector<std::vector<double>> y{{0}, {1}, {1}, {0}};
    RpropTrainer t(net);
    double err = t.train(x, y, 3000);
    EXPECT_LT(err, 1e-3);
}

TEST(MlpTest, TrainingReducesError)
{
    Mlp net({3, 5, 2}, 19);
    std::vector<std::vector<double>> x, y;
    Rng rng(2);
    for (int i = 0; i < 30; ++i) {
        double a = rng.uniform(), b = rng.uniform(),
               c = rng.uniform();
        x.push_back({a, b, c});
        y.push_back({a * b, b + c - 0.5});
    }
    double before = net.mse(x, y);
    RpropTrainer t(net);
    double after = t.train(x, y, 500);
    EXPECT_LT(after, before * 0.1);
}

} // namespace
} // namespace dhdl::ml
