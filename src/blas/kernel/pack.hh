// Packing of tile operands into contiguous, cache-blocked panels.
//
// pack_a lays out an mc x kc block of op(A) as ceil(mc/MR) strips, each strip
// holding kc steps of MR contiguous scalars (the micro-kernel's A operand);
// pack_b lays out a kc x nc block of op(B) as NR-column strips. Both are
// instantiated on the kernel-shape type K (microkernel.hh) whose K::MR /
// K::NR they pack for. Both zero-pad the last partial strip to full MR/NR
// width so the micro-kernel never needs edge masks on its operands —
// fringe handling happens only on the C store.
//
// The transpose/conjugation of the operand is absorbed here: the micro-kernel
// always sees plain row-strips, so one kernel serves all Op combinations.
// Real operands without a value transform take a strided fast path (a
// straight or transposing copy on raw pointers); at nb = 128 the generic
// per-element path cost a third (double) to half (float) of a tile gemm.
//
// Complex scalars are split into real/imaginary planes per k-step
// ([MR reals][MR imags]), which lets the complex micro-kernels vectorize on
// contiguous real data. A strip therefore occupies the same number of
// *complex* elements (kc * MR) whether split or not, so buffer sizing in T
// units is uniform across types.
//
// Simulated bf16 lives here as well: a pack-time value transform
// (prec::PackTrans) truncates each packed float scalar to bf16 with
// round-to-nearest-even (componentwise for complex), or extracts the low
// half for the compensated scheme. The micro-kernel itself is unchanged —
// it accumulates the truncated operands in fp32, which is exactly the
// bf16-in/fp32-accumulate contract of real matrix units. Double-typed packs
// never consult the transform.

#pragma once

#include <algorithm>
#include <cstring>

#include "common/precision.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas::kernel {

namespace detail {

/// Apply the pack-time value transform to one scalar. Only float-kind
/// scalars are ever transformed; the double instantiations keep their
/// straight-copy loops.
template <typename T>
inline T pack_value(prec::PackTrans tr, T v) {
    if constexpr (std::is_same_v<T, float>) {
        return prec::apply_pack_trans(tr, v);
    } else if constexpr (std::is_same_v<T, std::complex<float>>) {
        return T(prec::apply_pack_trans(tr, v.real()),
                 prec::apply_pack_trans(tr, v.imag()));
    } else {
        (void)tr;
        return v;
    }
}

/// Write mc x kc elements elem(i, l) as MR-row strips into buf.
template <typename T, int BR, typename Elem>
inline void pack_strips(int mc, int kc, Elem&& elem, T* buf,
                        prec::PackTrans tr = prec::PackTrans::None) {
    using R = real_t<T>;
    if constexpr (is_complex_v<T>) {
        R* out = reinterpret_cast<R*>(buf);
        for (int ir = 0; ir < mc; ir += BR) {
            int const br = std::min(BR, mc - ir);
            for (int l = 0; l < kc; ++l, out += 2 * BR) {
                for (int i = 0; i < br; ++i) {
                    T const v = pack_value<T>(tr, elem(ir + i, l));
                    out[i] = v.real();
                    out[BR + i] = v.imag();
                }
                for (int i = br; i < BR; ++i) {
                    out[i] = R(0);
                    out[BR + i] = R(0);
                }
            }
        }
    } else {
        T* out = buf;
        for (int ir = 0; ir < mc; ir += BR) {
            int const br = std::min(BR, mc - ir);
            for (int l = 0; l < kc; ++l, out += BR) {
                for (int i = 0; i < br; ++i)
                    out[i] = pack_value<T>(tr, elem(ir + i, l));
                for (int i = br; i < BR; ++i)
                    out[i] = T(0);
            }
        }
    }
}

/// Fast path of pack_strips for real scalars without a value transform.
/// Element (i, l) is p[i * si + l * sl] with si == 1 (a strip's rows are
/// contiguous: one straight copy per k-step) or sl == 1 (k is contiguous:
/// a transposing copy per strip row). Same layout as pack_strips.
template <typename T, int BR>
void pack_strips_strided(int mc, int kc, T const* p, std::ptrdiff_t si,
                         std::ptrdiff_t sl, T* out) {
    auto const step = static_cast<std::ptrdiff_t>(kc) * BR;
    for (int ir = 0; ir < mc; ir += BR, out += step) {
        int const br = std::min(BR, mc - ir);
        T const* src = p + ir * si;
        if (si == 1) {
            for (int l = 0; l < kc; ++l) {
                T const* col = src + l * sl;
                T* o = out + static_cast<std::ptrdiff_t>(l) * BR;
                if (br == BR) {
                    std::memcpy(o, col, sizeof(T) * BR);
                } else {
                    for (int i = 0; i < br; ++i)
                        o[i] = col[i];
                    for (int i = br; i < BR; ++i)
                        o[i] = T(0);
                }
            }
        } else {
            for (int i = 0; i < br; ++i) {
                T const* row = src + i * si;
                for (int l = 0; l < kc; ++l)
                    out[static_cast<std::ptrdiff_t>(l) * BR + i] = row[l];
            }
            for (int i = br; i < BR; ++i)
                for (int l = 0; l < kc; ++l)
                    out[static_cast<std::ptrdiff_t>(l) * BR + i] = T(0);
        }
    }
}

/// Whether the strided fast path applies: a real operand packed as is.
template <typename T>
constexpr bool plain_pack(prec::PackTrans tr) {
    return !is_complex_v<T> && tr == prec::PackTrans::None;
}

}  // namespace detail

/// Pack rows [i0, i0+mc) x columns [p0, p0+kc) of op(A) into K::MR strips.
template <typename K, typename T>
void pack_a(Op op, Tile<T> const& A, int i0, int p0, int mc, int kc, T* buf,
            prec::PackTrans tr = prec::PackTrans::None) {
    constexpr int MR = K::MR;
    if (detail::plain_pack<T>(tr)) {
        std::ptrdiff_t const ld = A.ld();
        if (op == Op::NoTrans)
            detail::pack_strips_strided<T, MR>(mc, kc, &A(i0, p0), 1, ld, buf);
        else
            detail::pack_strips_strided<T, MR>(mc, kc, &A(p0, i0), ld, 1, buf);
        return;
    }
    switch (op) {
        case Op::NoTrans:
            detail::pack_strips<T, MR>(
                mc, kc, [&](int i, int l) { return A(i0 + i, p0 + l); }, buf,
                tr);
            break;
        case Op::Trans:
            detail::pack_strips<T, MR>(
                mc, kc, [&](int i, int l) { return A(p0 + l, i0 + i); }, buf,
                tr);
            break;
        case Op::ConjTrans:
            detail::pack_strips<T, MR>(
                mc, kc,
                [&](int i, int l) { return conj_val(A(p0 + l, i0 + i)); },
                buf, tr);
            break;
    }
}

/// Pack rows [p0, p0+kc) x columns [j0, j0+nc) of op(B) into K::NR strips
/// (strips run over columns; each k-step holds NR column values).
template <typename K, typename T>
void pack_b(Op op, Tile<T> const& B, int p0, int j0, int kc, int nc, T* buf,
            prec::PackTrans tr = prec::PackTrans::None) {
    constexpr int NR = K::NR;
    if (detail::plain_pack<T>(tr)) {
        std::ptrdiff_t const ld = B.ld();
        if (op == Op::NoTrans)
            detail::pack_strips_strided<T, NR>(nc, kc, &B(p0, j0), ld, 1, buf);
        else
            detail::pack_strips_strided<T, NR>(nc, kc, &B(j0, p0), 1, ld, buf);
        return;
    }
    switch (op) {
        case Op::NoTrans:
            detail::pack_strips<T, NR>(
                nc, kc, [&](int j, int l) { return B(p0 + l, j0 + j); }, buf,
                tr);
            break;
        case Op::Trans:
            detail::pack_strips<T, NR>(
                nc, kc, [&](int j, int l) { return B(j0 + j, p0 + l); }, buf,
                tr);
            break;
        case Op::ConjTrans:
            detail::pack_strips<T, NR>(
                nc, kc,
                [&](int j, int l) { return conj_val(B(j0 + j, p0 + l)); },
                buf, tr);
            break;
    }
}

}  // namespace tbp::blas::kernel
