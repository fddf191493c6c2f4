/**
 * @file
 * AVX-512 instantiations of the native kernels. This is the ONLY TU
 * compiled with -mavx512f/dq/vl (see src/physics/CMakeLists.txt);
 * callers reach it through avx512KernelBackend() and only after the
 * runtime __builtin_cpu_supports checks in kernel_backend.cc, so no
 * AVX-512 instruction ever executes on a host without the feature.
 *
 * The double-precision Pack of the cloth kernels stays the W=8 AVX2
 * pair; what AVX-512 adds is the fp32 contact fast path at W=16 with
 * native gather/scatter and mask registers, which is where the
 * contact-heavy PGS time goes.
 */

#include "native_impl.hh"

#if !defined(__AVX512F__) || !defined(__AVX512DQ__) ||                \
    !defined(__AVX512VL__)
#error "native_avx512.cc must be compiled with -mavx512f/dq/vl"
#endif

namespace parallax
{

/** fp32 ops policy: 16 lanes, native gather/scatter, __mmask16. */
struct FOpsAvx512 {
    static constexpr int W = 16;
    using R = __m512;
    using I = __m512i;
    using M = __mmask16;

    static I idx(const std::int32_t *p)
    {
        return _mm512_loadu_si512(p);
    }
    static M valid(I i, std::int32_t dummy3)
    {
        return _mm512_cmpneq_epi32_mask(
            i, _mm512_set1_epi32(dummy3));
    }
    static R gather(const float *base, I i)
    {
        return _mm512_i32gather_ps(i, base, 4);
    }
    static void scatter(float *base, I i, M m, R v)
    {
        _mm512_mask_i32scatter_ps(base, m, i, v, 4);
    }
    static R load(const float *p) { return _mm512_loadu_ps(p); }
    static void store(float *p, R v) { _mm512_storeu_ps(p, v); }
    static R zero() { return _mm512_setzero_ps(); }
    static R add(R a, R b) { return _mm512_add_ps(a, b); }
    static R sub(R a, R b) { return _mm512_sub_ps(a, b); }
    static R mul(R a, R b) { return _mm512_mul_ps(a, b); }
    static R min(R a, R b) { return _mm512_min_ps(a, b); }
    static R max(R a, R b) { return _mm512_max_ps(a, b); }
    static R fmadd(R a, R b, R c)
    {
        return _mm512_fmadd_ps(a, b, c);
    }
    static R fnmadd(R a, R b, R c)
    {
        return _mm512_fnmadd_ps(a, b, c);
    }
};

const KernelBackend *
avx512KernelBackend()
{
    static const NativeBackend<PackX2<PackAvx2>, FOpsAvx512> w(
        "avx512");
    return &w;
}

} // namespace parallax
