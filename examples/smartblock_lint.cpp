// smartblock_lint: statically analyze a SmartBlock workflow launch script
// without running it (docs/LINT.md).  Wiring, symbolic shape/rank/kind
// propagation, header availability, fusion legality, and configuration
// safety are all checked against the components' declarative contracts;
// diagnostics carry stable rule IDs, launch-script line anchors, and fix-it
// hints.
//
//   smartblock_lint <workflow-script>                 human-readable report
//   smartblock_lint --json <script>                   machine-readable report
//   smartblock_lint --strict <script>                 warnings fail too (exit 2)
//   smartblock_lint --allow=<rule-id> <script>        suppress a rule (repeatable)
//   smartblock_lint --dot <script>                    Graphviz graph, findings colored
//   smartblock_lint --fuse=on|off|auto <script>       pin fusion for the legality notes
//   smartblock_lint --restart-policy on_failure <script>   audit restart config
//   smartblock_lint --retain-steps N --on-data-loss skip ...   audit stream config
//   smartblock_lint --liveness-ms 100 --fault 'p=delay:500' ...
//
// Exit code: 2 if any error, 1 if any warning (2 under --strict), 0 when
// clean — notes never fail.  Scripts may also embed `# lint-config:
// key=value` comment directives to make a committed script self-contained.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/graph.hpp"
#include "core/launch_script.hpp"
#include "lint/lint.hpp"
#include "sim/source_component.hpp"

namespace {

void print_usage() {
    std::fprintf(
        stderr,
        "usage: smartblock_lint [--json] [--strict] [--dot] [--allow=<rule-id>] "
        "[--fuse=on|off|auto] [--read-ahead <depth>] [--queue-capacity <n>] "
        "[--retain-steps <n>] "
        "[--on-data-loss fail|skip|zero-fill] "
        "[--restart-policy never|on_failure[:max]] [--liveness-ms <ms>] "
        "[--fault <spec>] <workflow-script>\n"
        "\nstatically checks the workflow's wiring, shapes, headers, fusion\n"
        "legality, and configuration safety; see docs/LINT.md for the rule\n"
        "catalog.  exit code: 0 clean, 1 warnings, 2 errors.\n");
}

std::string read_file(const char* path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error(std::string("cannot open '") + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
    sb::sim::register_simulations();

    bool json = false, strict = false, dot = false;
    sb::lint::Options opts;
    int argi = 1;
    try {
        while (argi < argc && argv[argi][0] == '-') {
            if (std::strcmp(argv[argi], "--json") == 0) {
                json = true;
                ++argi;
            } else if (std::strcmp(argv[argi], "--strict") == 0) {
                strict = true;
                ++argi;
            } else if (std::strcmp(argv[argi], "--dot") == 0) {
                dot = true;
                ++argi;
            } else if (std::strncmp(argv[argi], "--allow=", 8) == 0) {
                opts.allow.insert(argv[argi] + 8);
                ++argi;
            } else if (std::strncmp(argv[argi], "--fuse=", 7) == 0) {
                const std::string f(argv[argi] + 7);
                if (f == "on") {
                    opts.fusion = sb::core::FusionMode::On;
                } else if (f == "off") {
                    opts.fusion = sb::core::FusionMode::Off;
                } else if (f == "auto") {
                    opts.fusion = sb::core::FusionMode::Auto;
                } else {
                    print_usage();
                    return 2;
                }
                ++argi;
            } else if (std::strcmp(argv[argi], "--read-ahead") == 0 &&
                       argi + 1 < argc) {
                opts.stream.read_ahead =
                    static_cast<std::size_t>(std::stoul(argv[argi + 1]));
                argi += 2;
            } else if (std::strcmp(argv[argi], "--queue-capacity") == 0 &&
                       argi + 1 < argc) {
                opts.stream.queue_capacity =
                    static_cast<std::size_t>(std::stoul(argv[argi + 1]));
                argi += 2;
            } else if (std::strcmp(argv[argi], "--retain-steps") == 0 &&
                       argi + 1 < argc) {
                opts.stream.retain_steps =
                    static_cast<std::size_t>(std::stoul(argv[argi + 1]));
                argi += 2;
            } else if (std::strcmp(argv[argi], "--on-data-loss") == 0 &&
                       argi + 1 < argc) {
                const std::string v(argv[argi + 1]);
                if (v == "fail") {
                    opts.stream.on_data_loss = sb::flexpath::OnDataLoss::Fail;
                } else if (v == "skip") {
                    opts.stream.on_data_loss = sb::flexpath::OnDataLoss::Skip;
                } else if (v == "zero-fill") {
                    opts.stream.on_data_loss = sb::flexpath::OnDataLoss::ZeroFill;
                } else {
                    print_usage();
                    return 2;
                }
                argi += 2;
            } else if (std::strcmp(argv[argi], "--restart-policy") == 0 &&
                       argi + 1 < argc) {
                const std::string p(argv[argi + 1]);
                if (p == "never") {
                    opts.restart = sb::core::RestartPolicy::never();
                } else if (p.rfind("on_failure", 0) == 0 ||
                           p.rfind("on-failure", 0) == 0) {
                    int max_attempts = 2;
                    if (p.size() > 10 && p[10] == ':') {
                        max_attempts = std::stoi(p.substr(11));
                    }
                    opts.restart = sb::core::RestartPolicy::on_failure(max_attempts);
                } else {
                    print_usage();
                    return 2;
                }
                argi += 2;
            } else if (std::strcmp(argv[argi], "--liveness-ms") == 0 &&
                       argi + 1 < argc) {
                opts.stream.liveness_ms = std::stod(argv[argi + 1]);
                argi += 2;
            } else if (std::strcmp(argv[argi], "--fault") == 0 && argi + 1 < argc) {
                for (auto& spec : sb::lint::parse_fault_specs(argv[argi + 1])) {
                    opts.faults.push_back(std::move(spec));
                }
                argi += 2;
            } else {
                print_usage();
                return 2;
            }
        }
        if (argi != argc - 1) {
            print_usage();
            return 2;
        }

        const std::string script = read_file(argv[argi]);
        const sb::lint::Result result = sb::lint::lint_script(script, opts);

        if (dot) {
            const auto entries = sb::core::parse_launch_script(script);
            std::fputs(sb::core::graph_to_dot(
                           entries, sb::lint::dot_annotations(entries, result))
                           .c_str(),
                       stdout);
            return sb::lint::exit_code(result, strict);
        }
        if (json) {
            std::fputs(sb::lint::render_json(result, strict).c_str(), stdout);
        } else {
            std::fputs(sb::lint::render_text(result, argv[argi]).c_str(), stdout);
        }
        return sb::lint::exit_code(result, strict);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "smartblock_lint: %s\n", e.what());
        return 2;
    }
}
