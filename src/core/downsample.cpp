#include "core/downsample.hpp"

namespace sb::core {

std::optional<FusedStage> Downsample::stage(const util::ArgList& args) const {
    args.require_at_least(6, usage());
    FusedStage st;
    st.kind = FusedStage::Kind::Downsample;
    st.component = name();
    st.in_stream = args.str(0, "input-stream-name");
    st.in_array = args.str(1, "input-array-name");
    st.dim = stage_arg(st, [&] { return args.unsigned_integer(2, "dimension-index"); });
    st.stride = stage_arg(st, [&] { return args.unsigned_integer(3, "stride"); });
    st.out_stream = args.str(4, "output-stream-name");
    st.out_array = args.str(5, "output-array-name");
    if (st.arg_errors.empty() && st.stride == 0) {
        st.arg_errors.emplace_back("downsample: stride must be positive");
    }
    return st;
}

}  // namespace sb::core
