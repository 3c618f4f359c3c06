#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace remapd {
namespace {

TEST(ConvGeom, OutputDims) {
  ConvGeom g{3, 16, 16, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 16u);
  EXPECT_EQ(g.out_w(), 16u);
  EXPECT_EQ(g.col_rows(), 27u);
  EXPECT_EQ(g.col_cols(), 256u);

  ConvGeom s{8, 8, 8, 3, 3, 2, 1};
  EXPECT_EQ(s.out_h(), 4u);
  EXPECT_EQ(s.out_w(), 4u);

  ConvGeom one{4, 5, 5, 1, 1, 1, 0};
  EXPECT_EQ(one.out_h(), 5u);
  EXPECT_EQ(one.col_rows(), 4u);
}

/// Reference: direct gather per output position.
void naive_im2col(const float* img, const ConvGeom& g, float* col) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw)
        for (std::size_t y = 0; y < oh; ++y)
          for (std::size_t x = 0; x < ow; ++x) {
            const long iy = static_cast<long>(y * g.stride + kh) -
                            static_cast<long>(g.pad);
            const long ix = static_cast<long>(x * g.stride + kw) -
                            static_cast<long>(g.pad);
            const std::size_t row =
                (c * g.kernel_h + kh) * g.kernel_w + kw;
            float v = 0.0f;
            if (iy >= 0 && iy < static_cast<long>(g.height) && ix >= 0 &&
                ix < static_cast<long>(g.width))
              v = img[(c * g.height + static_cast<std::size_t>(iy)) *
                          g.width +
                      static_cast<std::size_t>(ix)];
            col[row * oh * ow + y * ow + x] = v;
          }
}

class Im2ColPropertyTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Im2ColPropertyTest, MatchesNaiveGather) {
  const ConvGeom g = GetParam();
  Rng rng(g.channels * 131 + g.height * 17 + g.kernel_h + g.stride);
  Tensor img = Tensor::randn(Shape{g.channels, g.height, g.width}, rng);
  const std::size_t n = g.col_rows() * g.col_cols();
  std::vector<float> fast(n), ref(n);
  im2col(img.data(), g, fast.data(), g.col_cols());
  naive_im2col(img.data(), g, ref.data());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(fast[i], ref[i]) << "at " << i;
}

TEST_P(Im2ColPropertyTest, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> characterizes the adjoint (the exact
  // property the conv backward pass relies on).
  const ConvGeom g = GetParam();
  Rng rng(g.channels + g.height * 3 + g.kernel_w * 7);
  Tensor x = Tensor::randn(Shape{g.channels, g.height, g.width}, rng);
  const std::size_t n = g.col_rows() * g.col_cols();
  Tensor y = Tensor::randn(Shape{n}, rng);

  std::vector<float> cx(n);
  im2col(x.data(), g, cx.data(), g.col_cols());
  double lhs = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    lhs += static_cast<double>(cx[i]) * y[i];

  Tensor back = Tensor::zeros(x.shape());
  col2im(y.data(), g, back.data(), g.col_cols());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, Im2ColPropertyTest,
    ::testing::Values(ConvGeom{1, 4, 4, 3, 3, 1, 1},
                      ConvGeom{3, 8, 8, 3, 3, 1, 1},
                      ConvGeom{2, 8, 8, 3, 3, 2, 1},
                      ConvGeom{4, 6, 6, 1, 1, 1, 0},
                      ConvGeom{2, 5, 7, 3, 3, 1, 0},
                      ConvGeom{1, 16, 16, 5, 5, 1, 2},
                      ConvGeom{3, 16, 16, 3, 3, 2, 1},
                      ConvGeom{8, 2, 2, 1, 1, 1, 0}));

// The bounds-checked lowering loops as they stood before the valid-range
// rewrite, kept verbatim as the bitwise reference: im2col is a gather, and
// col2im must add each element's contributions in this order.
void reference_im2col(const float* img, const ConvGeom& g, float* col,
                      std::size_t ld) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* dst = col + row * ld;
        for (std::size_t y = 0; y < oh; ++y) {
          const long iy = static_cast<long>(y * g.stride + kh) -
                          static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(g.height)) {
            for (std::size_t x = 0; x < ow; ++x) dst[y * ow + x] = 0.0f;
            continue;
          }
          const float* src =
              img + (c * g.height + static_cast<std::size_t>(iy)) * g.width;
          for (std::size_t x = 0; x < ow; ++x) {
            const long ix = static_cast<long>(x * g.stride + kw) -
                            static_cast<long>(g.pad);
            dst[y * ow + x] = (ix < 0 || ix >= static_cast<long>(g.width))
                                  ? 0.0f
                                  : src[static_cast<std::size_t>(ix)];
          }
        }
      }
}

void reference_col2im(const float* col, const ConvGeom& g, float* img,
                      std::size_t ld) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * ld;
        for (std::size_t y = 0; y < oh; ++y) {
          const long iy = static_cast<long>(y * g.stride + kh) -
                          static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(g.height)) continue;
          float* dst =
              img + (c * g.height + static_cast<std::size_t>(iy)) * g.width;
          for (std::size_t x = 0; x < ow; ++x) {
            const long ix = static_cast<long>(x * g.stride + kw) -
                            static_cast<long>(g.pad);
            if (ix < 0 || ix >= static_cast<long>(g.width)) continue;
            dst[static_cast<std::size_t>(ix)] += src[y * ow + x];
          }
        }
      }
}

TEST(Im2Col, LoweringMatchesReferenceBitwise) {
  // Kernel 1 and 3, stride 1 and 2, pad 0 and 1, every square size from 1
  // to 17 the geometry admits, each lowered as a standalone matrix and as
  // one sample's slice of a wider panel (ld > col_cols). col2im adds onto a
  // non-zero image, so the order of each element's adds is pinned too.
  Rng rng(71);
  for (const std::size_t kernel : {1, 3})
    for (const std::size_t stride : {1, 2})
      for (const std::size_t pad : {0, 1})
        for (std::size_t hw = 1; hw <= 17; ++hw) {
          if (hw + 2 * pad < kernel) continue;
          const ConvGeom g{2, hw, hw, kernel, kernel, stride, pad};
          const Tensor img = Tensor::randn(Shape{2, hw, hw}, rng);
          for (const std::size_t extra : {0, 5}) {
            const std::size_t ld = g.col_cols() + extra;
            const std::size_t n = g.col_rows() * ld;
            std::vector<float> fast(n, -1.0f), ref(n, -1.0f);
            im2col(img.data(), g, fast.data(), ld);
            reference_im2col(img.data(), g, ref.data(), ld);
            ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(),
                                     n * sizeof(float)))
                << "im2col k=" << kernel << " s=" << stride << " p=" << pad
                << " hw=" << hw << " ld=" << ld;

            const Tensor cols = Tensor::randn(Shape{n}, rng);
            Tensor back = Tensor::randn(img.shape(), rng);
            Tensor back_ref = back;
            col2im(cols.data(), g, back.data(), ld);
            reference_col2im(cols.data(), g, back_ref.data(), ld);
            ASSERT_EQ(0, std::memcmp(back.data(), back_ref.data(),
                                     back.numel() * sizeof(float)))
                << "col2im k=" << kernel << " s=" << stride << " p=" << pad
                << " hw=" << hw << " ld=" << ld;
          }
        }
}

TEST(Im2Col, ZeroPaddingProducesZeros) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1};
  Tensor img = Tensor::ones(Shape{1, 2, 2});
  std::vector<float> col(g.col_rows() * g.col_cols());
  im2col(img.data(), g, col.data(), g.col_cols());
  // Top-left kernel tap at output (0,0) reads the padded corner.
  EXPECT_EQ(col[0], 0.0f);
}

}  // namespace
}  // namespace remapd
