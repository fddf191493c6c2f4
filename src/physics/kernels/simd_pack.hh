/**
 * @file
 * Thin fixed-width SIMD pack wrapper for the kernel backends.
 *
 * A "pack" is W lanes of Real (double) with the small op vocabulary
 * the vectorized kernels need: load/store, broadcast, arithmetic,
 * min/max/sqrt, 32-bit-index gather, compares and masked select.
 * Three families exist:
 *
 *  - PackScalar<W>: portable reference, plain arrays + loops. Used
 *    by unit tests on any host and as the documentation of the
 *    semantics the intrinsic packs must match.
 *  - PackAvx2 (W=4, x86-64): one __m256d. Only defined in TUs built
 *    with -mavx2 (the build isolates those; see
 *    src/physics/CMakeLists.txt).
 *  - PackNeon (W=2, aarch64): one float64x2_t.
 *
 * PackX2<P> glues two packs into a double-width one: W=8 doubles for
 * the AVX-512 backend (two AVX2 halves) and W=4 for NEON.
 *
 * Deliberately absent: FMA. The kernels keep plain mul+add so each
 * lane's arithmetic is the same IEEE sequence as the scalar
 * reference — elementwise kernels (cloth integration, batched
 * narrowphase) are then bitwise identical per element, and the
 * relaxation kernels differ from the scalar reference only by
 * processing order (see DESIGN.md section 13).
 */

#ifndef PARALLAX_PHYSICS_KERNELS_SIMD_PACK_HH
#define PARALLAX_PHYSICS_KERNELS_SIMD_PACK_HH

#include <cmath>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace parallax
{

/** Portable reference pack: W doubles, all ops are plain loops. */
template <int Width>
struct PackScalar
{
    static constexpr int W = Width;
    double v[W];

    struct Mask
    {
        bool m[W];

        /** Lane mask as bits (lane i -> bit i). */
        unsigned
        bits() const
        {
            unsigned b = 0;
            for (int i = 0; i < W; ++i)
                b |= m[i] ? (1u << i) : 0u;
            return b;
        }

        friend Mask
        operator&(const Mask &a, const Mask &b)
        {
            Mask r;
            for (int i = 0; i < W; ++i)
                r.m[i] = a.m[i] && b.m[i];
            return r;
        }
    };

    static PackScalar
    load(const double *p)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = p[i];
        return r;
    }

    static PackScalar
    broadcast(double s)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = s;
        return r;
    }

    static PackScalar zero() { return broadcast(0.0); }

    static PackScalar
    gather(const double *base, const std::int32_t *idx)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = base[idx[i]];
        return r;
    }

    void
    store(double *p) const
    {
        for (int i = 0; i < W; ++i)
            p[i] = v[i];
    }

    friend PackScalar
    operator+(const PackScalar &a, const PackScalar &b)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] + b.v[i];
        return r;
    }

    friend PackScalar
    operator-(const PackScalar &a, const PackScalar &b)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] - b.v[i];
        return r;
    }

    friend PackScalar
    operator*(const PackScalar &a, const PackScalar &b)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] * b.v[i];
        return r;
    }

    friend PackScalar
    operator/(const PackScalar &a, const PackScalar &b)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] / b.v[i];
        return r;
    }

    /** a*b + c, fused where the target has FMA. Only for kernels
     *  whose contract is tolerance-bounded (PGS): fusing changes
     *  rounding, so the bitwise elementwise kernels must not use
     *  it. */
    static PackScalar
    mulAdd(const PackScalar &a, const PackScalar &b,
           const PackScalar &c)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
        return r;
    }

    PackScalar
    operator-() const
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = -v[i];
        return r;
    }

    static PackScalar
    min(const PackScalar &a, const PackScalar &b)
    {
        PackScalar r;
        // a > b ? b : a — matches the x86 minpd operand convention
        // (second operand wins on ties/NaN) so all pack families
        // agree on the edge cases.
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
        return r;
    }

    static PackScalar
    max(const PackScalar &a, const PackScalar &b)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
        return r;
    }

    static PackScalar
    sqrt(const PackScalar &a)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = std::sqrt(a.v[i]);
        return r;
    }

    static Mask
    cmpGt(const PackScalar &a, const PackScalar &b)
    {
        Mask r;
        for (int i = 0; i < W; ++i)
            r.m[i] = a.v[i] > b.v[i];
        return r;
    }

    static Mask
    cmpGe(const PackScalar &a, const PackScalar &b)
    {
        Mask r;
        for (int i = 0; i < W; ++i)
            r.m[i] = a.v[i] >= b.v[i];
        return r;
    }

    static Mask
    cmpLe(const PackScalar &a, const PackScalar &b)
    {
        Mask r;
        for (int i = 0; i < W; ++i)
            r.m[i] = a.v[i] <= b.v[i];
        return r;
    }

    /** Lane-wise m ? a : b. */
    static PackScalar
    select(const Mask &m, const PackScalar &a, const PackScalar &b)
    {
        PackScalar r;
        for (int i = 0; i < W; ++i)
            r.v[i] = m.m[i] ? a.v[i] : b.v[i];
        return r;
    }
};

#if defined(__AVX2__)

/** AVX2 pack: 4 doubles in one __m256d. */
struct PackAvx2
{
    static constexpr int W = 4;
    __m256d v;

    struct Mask
    {
        __m256d m; // All-ones lanes where true.

        unsigned
        bits() const
        {
            return static_cast<unsigned>(_mm256_movemask_pd(m));
        }

        friend Mask
        operator&(const Mask &a, const Mask &b)
        {
            return {_mm256_and_pd(a.m, b.m)};
        }
    };

    static PackAvx2 load(const double *p) { return {_mm256_loadu_pd(p)}; }
    static PackAvx2 broadcast(double s) { return {_mm256_set1_pd(s)}; }
    static PackAvx2 zero() { return {_mm256_setzero_pd()}; }

    static PackAvx2
    gather(const double *base, const std::int32_t *idx)
    {
        const __m128i i = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx));
        return {_mm256_i32gather_pd(base, i, 8)};
    }

    void store(double *p) const { _mm256_storeu_pd(p, v); }

    friend PackAvx2
    operator+(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }

    friend PackAvx2
    operator-(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }

    friend PackAvx2
    operator*(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }

    friend PackAvx2
    operator/(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }

    /** a*b + c (fused when compiled with -mfma; the runtime
     *  dispatch requires the fma CPU bit alongside avx2). */
    static PackAvx2
    mulAdd(const PackAvx2 &a, const PackAvx2 &b, const PackAvx2 &c)
    {
#if defined(__FMA__)
        return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
        return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
#endif
    }

    PackAvx2
    operator-() const
    {
        return {_mm256_sub_pd(_mm256_setzero_pd(), v)};
    }

    static PackAvx2
    min(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_min_pd(a.v, b.v)};
    }

    static PackAvx2
    max(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_max_pd(a.v, b.v)};
    }

    static PackAvx2 sqrt(const PackAvx2 &a) { return {_mm256_sqrt_pd(a.v)}; }

    static Mask
    cmpGt(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
    }

    static Mask
    cmpGe(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
    }

    static Mask
    cmpLe(const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
    }

    static PackAvx2
    select(const Mask &m, const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_blendv_pd(b.v, a.v, m.m)};
    }
};

#endif // __AVX2__

#if defined(__aarch64__)

/** NEON pack: 2 doubles in one float64x2_t. */
struct PackNeon
{
    static constexpr int W = 2;
    float64x2_t v;

    struct Mask
    {
        uint64x2_t m;

        unsigned
        bits() const
        {
            return static_cast<unsigned>(vgetq_lane_u64(m, 0) & 1u) |
                   (static_cast<unsigned>(vgetq_lane_u64(m, 1) & 1u)
                    << 1);
        }

        friend Mask
        operator&(const Mask &a, const Mask &b)
        {
            return {vandq_u64(a.m, b.m)};
        }
    };

    static PackNeon load(const double *p) { return {vld1q_f64(p)}; }
    static PackNeon broadcast(double s) { return {vdupq_n_f64(s)}; }
    static PackNeon zero() { return broadcast(0.0); }

    static PackNeon
    gather(const double *base, const std::int32_t *idx)
    {
        double lanes[2] = {base[idx[0]], base[idx[1]]};
        return load(lanes);
    }

    void store(double *p) const { vst1q_f64(p, v); }

    friend PackNeon
    operator+(const PackNeon &a, const PackNeon &b)
    {
        return {vaddq_f64(a.v, b.v)};
    }

    friend PackNeon
    operator-(const PackNeon &a, const PackNeon &b)
    {
        return {vsubq_f64(a.v, b.v)};
    }

    friend PackNeon
    operator*(const PackNeon &a, const PackNeon &b)
    {
        return {vmulq_f64(a.v, b.v)};
    }

    friend PackNeon
    operator/(const PackNeon &a, const PackNeon &b)
    {
        return {vdivq_f64(a.v, b.v)};
    }

    /** a*b + c, fused (vfmaq accumulates into its first operand). */
    static PackNeon
    mulAdd(const PackNeon &a, const PackNeon &b, const PackNeon &c)
    {
        return {vfmaq_f64(c.v, a.v, b.v)};
    }

    PackNeon operator-() const { return {vnegq_f64(v)}; }

    static PackNeon
    min(const PackNeon &a, const PackNeon &b)
    {
        return {vminq_f64(a.v, b.v)};
    }

    static PackNeon
    max(const PackNeon &a, const PackNeon &b)
    {
        return {vmaxq_f64(a.v, b.v)};
    }

    static PackNeon sqrt(const PackNeon &a) { return {vsqrtq_f64(a.v)}; }

    static Mask
    cmpGt(const PackNeon &a, const PackNeon &b)
    {
        return {vcgtq_f64(a.v, b.v)};
    }

    static Mask
    cmpGe(const PackNeon &a, const PackNeon &b)
    {
        return {vcgeq_f64(a.v, b.v)};
    }

    static Mask
    cmpLe(const PackNeon &a, const PackNeon &b)
    {
        return {vcleq_f64(a.v, b.v)};
    }

    static PackNeon
    select(const Mask &m, const PackNeon &a, const PackNeon &b)
    {
        return {vbslq_f64(m.m, a.v, b.v)};
    }
};

#endif // __aarch64__

/** Double-width pack built from two P halves (W = 2 * P::W). */
template <typename P>
struct PackX2
{
    static constexpr int W = 2 * P::W;
    P lo, hi;

    struct Mask
    {
        typename P::Mask lo, hi;

        unsigned
        bits() const
        {
            return lo.bits() | (hi.bits() << P::W);
        }

        friend Mask
        operator&(const Mask &a, const Mask &b)
        {
            return {a.lo & b.lo, a.hi & b.hi};
        }
    };

    static PackX2
    load(const double *p)
    {
        return {P::load(p), P::load(p + P::W)};
    }

    static PackX2
    broadcast(double s)
    {
        return {P::broadcast(s), P::broadcast(s)};
    }

    static PackX2 zero() { return {P::zero(), P::zero()}; }

    static PackX2
    gather(const double *base, const std::int32_t *idx)
    {
        return {P::gather(base, idx), P::gather(base, idx + P::W)};
    }

    void
    store(double *p) const
    {
        lo.store(p);
        hi.store(p + P::W);
    }

    friend PackX2
    operator+(const PackX2 &a, const PackX2 &b)
    {
        return {a.lo + b.lo, a.hi + b.hi};
    }

    friend PackX2
    operator-(const PackX2 &a, const PackX2 &b)
    {
        return {a.lo - b.lo, a.hi - b.hi};
    }

    friend PackX2
    operator*(const PackX2 &a, const PackX2 &b)
    {
        return {a.lo * b.lo, a.hi * b.hi};
    }

    friend PackX2
    operator/(const PackX2 &a, const PackX2 &b)
    {
        return {a.lo / b.lo, a.hi / b.hi};
    }

    static PackX2
    mulAdd(const PackX2 &a, const PackX2 &b, const PackX2 &c)
    {
        return {P::mulAdd(a.lo, b.lo, c.lo),
                P::mulAdd(a.hi, b.hi, c.hi)};
    }

    PackX2 operator-() const { return {-lo, -hi}; }

    static PackX2
    min(const PackX2 &a, const PackX2 &b)
    {
        return {P::min(a.lo, b.lo), P::min(a.hi, b.hi)};
    }

    static PackX2
    max(const PackX2 &a, const PackX2 &b)
    {
        return {P::max(a.lo, b.lo), P::max(a.hi, b.hi)};
    }

    static PackX2
    sqrt(const PackX2 &a)
    {
        return {P::sqrt(a.lo), P::sqrt(a.hi)};
    }

    static Mask
    cmpGt(const PackX2 &a, const PackX2 &b)
    {
        return {P::cmpGt(a.lo, b.lo), P::cmpGt(a.hi, b.hi)};
    }

    static Mask
    cmpGe(const PackX2 &a, const PackX2 &b)
    {
        return {P::cmpGe(a.lo, b.lo), P::cmpGe(a.hi, b.hi)};
    }

    static Mask
    cmpLe(const PackX2 &a, const PackX2 &b)
    {
        return {P::cmpLe(a.lo, b.lo), P::cmpLe(a.hi, b.hi)};
    }

    static PackX2
    select(const Mask &m, const PackX2 &a, const PackX2 &b)
    {
        return {P::select(m.lo, a.lo, b.lo),
                P::select(m.hi, a.hi, b.hi)};
    }
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_KERNELS_SIMD_PACK_HH
