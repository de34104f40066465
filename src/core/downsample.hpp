// The Downsample component.
//
//   downsample input-stream-name input-array-name dimension-index stride
//              output-stream-name output-array-name
//
// Keeps every stride-th index (0, stride, 2*stride, ...) of one dimension —
// the standard data-reduction step when an analysis only needs a coarser
// sampling of particles, gridpoints, or timvarying quantities.  A header on
// the sampled dimension, if present, is filtered to the kept rows so
// name-based selection still works downstream.
#pragma once

#include "core/component.hpp"

namespace sb::core {

class Downsample : public Component {
public:
    std::string name() const override { return "downsample"; }
    std::string usage() const override {
        return "downsample input-stream-name input-array-name dimension-index "
               "stride output-stream-name output-array-name";
    }
    std::optional<FusedStage> stage(const util::ArgList& args) const override;
    Contract contract(const util::ArgList& args) const override {
        const FusedStage st = *stage(args);
        Contract c = stage_contract(st);
        InputContract& in = c.inputs.front();
        in.dim_params["dimension-index"] = st.dim;
        in.min_rank = st.dim + 1;
        OutputContract& out = c.outputs.front();
        out.rule = OutputContract::Shape::DivideDim;
        out.dim = st.dim;
        out.count = st.stride;
        return c;
    }
};

}  // namespace sb::core
