// The Select component (paper §III.C).
//
//   select input-stream input-array dimension-index
//          output-stream output-array name1 [name2 ...]
//
// Extracts the named rows of one dimension of an n-dimensional array: the
// output has the same rank, with the dimension of interest shrunk to the
// selected rows.  Rows are identified *by name* through the header attribute
// the upstream component attached ("<array>.header.<dim>"), so launch
// scripts select quantities like "vx vy vz" instead of index numbers.
// The filtered header (in selection order) is re-attached on the output;
// every other attribute and dimension label propagates unchanged.
#pragma once

#include "core/component.hpp"

namespace sb::core {

class Select : public Component {
public:
    std::string name() const override { return "select"; }
    std::string usage() const override {
        return "select input-stream-name input-array-name dimension-index "
               "output-stream-name output-array-name name1 [name2 ...]";
    }
    std::optional<FusedStage> stage(const util::ArgList& args) const override;
    Contract contract(const util::ArgList& args) const override {
        const FusedStage st = *stage(args);
        Contract c = stage_contract(st);
        InputContract& in = c.inputs.front();
        in.dim_params["dimension-index"] = st.dim;
        in.min_rank = st.dim + 1;
        in.need_headers[st.dim] = st.wanted;  // rows are selected *by name*
        OutputContract& out = c.outputs.front();
        out.rule = OutputContract::Shape::SetDim;
        out.dim = st.dim;
        out.count = st.wanted.size();
        out.set_headers[st.dim] = st.wanted;  // filtered header, selection order
        return c;
    }
};

}  // namespace sb::core
