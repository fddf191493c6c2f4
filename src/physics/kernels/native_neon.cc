/**
 * @file
 * NEON instantiations of the native kernels (aarch64 only; NEON is
 * architectural there, so no runtime dispatch is needed).
 */

#include "native_impl.hh"

#if !defined(__aarch64__)
#error "native_neon.cc is aarch64-only"
#endif

namespace parallax
{

const KernelBackend *
neonKernelBackend()
{
    static const NativeBackend<PackX2<PackNeon>> w("neonx4");
    return &w;
}

} // namespace parallax
