#include "core/select.hpp"

namespace sb::core {

std::optional<FusedStage> Select::stage(const util::ArgList& args) const {
    args.require_at_least(6, usage());
    FusedStage st;
    st.kind = FusedStage::Kind::Select;
    st.component = name();
    st.in_stream = args.str(0, "input-stream-name");
    st.in_array = args.str(1, "input-array-name");
    st.dim = stage_arg(st, [&] { return args.unsigned_integer(2, "dimension-index"); });
    st.out_stream = args.str(3, "output-stream-name");
    st.out_array = args.str(4, "output-array-name");
    st.wanted = args.rest(5);
    return st;
}

}  // namespace sb::core
