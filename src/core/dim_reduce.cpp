#include "core/dim_reduce.hpp"

#include <cstring>
#include <span>

#include "core/kernels.hpp"

namespace sb::core {

util::NdShape dim_reduce_shape(const util::NdShape& in_shape, std::size_t remove,
                               std::size_t grow) {
    if (remove == grow) {
        throw std::invalid_argument("dim-reduce: remove and grow dimensions must differ");
    }
    if (remove >= in_shape.ndim() || grow >= in_shape.ndim()) {
        throw std::invalid_argument("dim-reduce: dimension out of range for " +
                                    in_shape.to_string());
    }
    std::vector<std::uint64_t> out;
    out.reserve(in_shape.ndim() - 1);
    for (std::size_t d = 0; d < in_shape.ndim(); ++d) {
        if (d == remove) continue;
        out.push_back(d == grow ? in_shape[d] * in_shape[remove] : in_shape[d]);
    }
    return util::NdShape(std::move(out));
}

void dim_reduce_copy(std::span<const std::byte> src, const util::NdShape& in_shape,
                     std::size_t remove, std::size_t grow, std::span<std::byte> dst,
                     std::size_t elem) {
    const util::NdShape out_shape = dim_reduce_shape(in_shape, remove, grow);
    if (src.size() < in_shape.volume() * elem || dst.size() < out_shape.volume() * elem) {
        throw std::invalid_argument("dim_reduce_copy: buffer too small");
    }
    const std::size_t nd = in_shape.ndim();
    if (in_shape.volume() == 0) return;

    // Effective output stride of each *input* dimension: the grown output
    // index is g*Nr + r, so dim `grow` contributes with stride
    // out_stride(g') * Nr and dim `remove` with out_stride(g').
    const std::vector<std::uint64_t> out_strides = out_shape.strides();
    std::vector<std::uint64_t> eff(nd, 0);
    {
        std::size_t j = 0;  // output dimension index
        std::uint64_t grow_stride = 0;
        for (std::size_t d = 0; d < nd; ++d) {
            if (d == remove) continue;
            if (d == grow) grow_stride = out_strides[j];
            eff[d] = out_strides[j];
            ++j;
        }
        eff[grow] = grow_stride * in_shape[remove];
        eff[remove] = grow_stride;
    }

    // Odometer over the input, copying contiguous runs of the innermost
    // input dimension when its effective output stride is 1.
    const bool inner_contig = eff[nd - 1] == 1;
    const std::uint64_t inner_n = in_shape[nd - 1];
    std::vector<std::uint64_t> idx(nd, 0);
    std::uint64_t src_off = 0;  // in elements; src is dense row-major
    for (;;) {
        std::uint64_t dst_off = 0;
        for (std::size_t d = 0; d < nd; ++d) dst_off += idx[d] * eff[d];
        if (inner_contig) {
            std::memcpy(dst.data() + dst_off * elem, src.data() + src_off * elem,
                        inner_n * elem);
            src_off += inner_n;
        } else {
            kernels::scatter_strided(src.data() + src_off * elem,
                                     dst.data() + dst_off * elem, inner_n,
                                     eff[nd - 1], elem,
                                     kernels::active_schedule());
            src_off += inner_n;
        }
        // Advance dims [0, nd-1).
        std::size_t d = nd - 1;
        for (;;) {
            if (d == 0) return;
            --d;
            if (++idx[d] < in_shape[d]) break;
            idx[d] = 0;
        }
    }
}

std::optional<FusedStage> DimReduce::stage(const util::ArgList& args) const {
    args.require_at_least(6, usage());
    FusedStage st;
    st.kind = FusedStage::Kind::DimReduce;
    st.component = name();
    st.in_stream = args.str(0, "input-stream-name");
    st.in_array = args.str(1, "input-array-name");
    st.remove = stage_arg(st, [&] { return args.unsigned_integer(2, "dim-to-remove"); });
    st.grow = stage_arg(st, [&] { return args.unsigned_integer(3, "dim-to-grow"); });
    st.out_stream = args.str(4, "output-stream-name");
    st.out_array = args.str(5, "output-array-name");
    return st;
}

}  // namespace sb::core
