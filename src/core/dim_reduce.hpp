// The Dim-Reduce component (paper §III.F).
//
//   dim-reduce input-stream-name input-array-name dim-to-remove dim-to-grow
//              output-stream-name output-array-name
//
// Removes one dimension of the input array by absorbing it into another,
// *without changing the total size of the data*: the output has one fewer
// dimension, with the grown dimension's extent multiplied by the removed
// dimension's.  The removed index varies fastest within the grown one:
//
//     out[..., g*Nr + r, ...] = in[..., g, ..., r, ...]
//
// Because multi-dimensional data lives in a specific row-major order, this
// generally requires a genuine re-arrangement of memory, not just a
// reshape — the reason the component exists (paper §III.A guideline 4).
// E.g. GTCP's (slices, gridpoints, quantities) pressure field needs two
// Dim-Reduce passes to become the 1-D array Histogram expects.
#pragma once

#include <algorithm>

#include "core/component.hpp"

namespace sb::core {

class DimReduce : public Component {
public:
    std::string name() const override { return "dim-reduce"; }
    std::string usage() const override {
        return "dim-reduce input-stream-name input-array-name dim-to-remove "
               "dim-to-grow output-stream-name output-array-name";
    }
    std::optional<FusedStage> stage(const util::ArgList& args) const override;
    Contract contract(const util::ArgList& args) const override {
        const FusedStage st = *stage(args);
        Contract c = stage_contract(st);
        if (st.remove == st.grow) {
            c.param_errors.push_back(
                "dim-reduce: dim-to-remove and dim-to-grow are both " +
                std::to_string(st.remove) + " (they must differ)");
        }
        InputContract& in = c.inputs.front();
        in.dim_params["dim-to-remove"] = st.remove;
        in.dim_params["dim-to-grow"] = st.grow;
        in.min_rank = std::max(st.remove, st.grow) + 1;
        OutputContract& out = c.outputs.front();
        out.rule = OutputContract::Shape::AbsorbDim;
        out.dim = st.remove;
        out.dim2 = st.grow;
        return c;
    }
};

/// The layout kernel, exposed for unit tests and the micro benchmarks:
/// copies `src` (row-major, shape `in_shape`) into `dst` with dimension
/// `remove` absorbed into dimension `grow`.  `dst` must hold the same number
/// of elements.  `elem` is the element size in bytes.
void dim_reduce_copy(std::span<const std::byte> src, const util::NdShape& in_shape,
                     std::size_t remove, std::size_t grow, std::span<std::byte> dst,
                     std::size_t elem);

/// The output shape of a dim-reduce: `remove` deleted, `grow` multiplied.
util::NdShape dim_reduce_shape(const util::NdShape& in_shape, std::size_t remove,
                               std::size_t grow);

}  // namespace sb::core
