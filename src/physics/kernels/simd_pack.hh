/**
 * @file
 * Thin fixed-width SIMD pack wrapper for the cloth kernels.
 *
 * A "pack" is W lanes of Real (double) with the small op vocabulary
 * the vectorized cloth integration and relaxation need: load/store,
 * broadcast, + - * /, sqrt, 32-bit-index gather, compares and masked
 * select. PackAvx2 (W=4, x86-64) is one __m256d, only defined in TUs
 * built with -mavx2 (the build isolates those; see
 * src/physics/CMakeLists.txt). PackX2<P> glues two packs into a
 * double-width one: W=8 doubles for the AVX-512 backend (two AVX2
 * halves).
 *
 * No op fuses, so each lane's arithmetic is the same IEEE sequence as
 * the scalar reference: cloth integration is bitwise identical per
 * element, and cloth relaxation differs from the scalar reference
 * only by processing order (see DESIGN.md section 13). The fused
 * contact PGS sweep is fp32 and has its own per-ISA ops policy
 * (native_avx2.cc, native_avx512.cc).
 */

#ifndef PARALLAX_PHYSICS_KERNELS_SIMD_PACK_HH
#define PARALLAX_PHYSICS_KERNELS_SIMD_PACK_HH

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace parallax
{

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

    static PackAvx2
    select(const Mask &m, const PackAvx2 &a, const PackAvx2 &b)
    {
        return {_mm256_blendv_pd(b.v, a.v, m.m)};
    }
};

#endif // __AVX2__

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

    static PackX2
    select(const Mask &m, const PackX2 &a, const PackX2 &b)
    {
        return {P::select(m.lo, a.lo, b.lo),
                P::select(m.hi, a.hi, b.hi)};
    }
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_KERNELS_SIMD_PACK_HH
