/**
 * @file
 * detlint report rendering: the human text format CI logs show and
 * the JSON format uploaded as a build artifact, plus the exit-code
 * contract lint jobs gate on.
 */

#include <sstream>

#include "src/common/json.h"
#include "tools/detlint/detlint.h"

namespace detlint {

std::string
formatText(const Report &report)
{
    std::ostringstream out;
    for (const Finding &f : report.findings) {
        out << f.file << ':' << f.line << ": [" << f.rule << "] "
            << f.message << '\n';
        if (!f.snippet.empty())
            out << "    " << f.snippet << '\n';
    }
    out << "detlint: " << report.findings.size() << " finding"
        << (report.findings.size() == 1 ? "" : "s") << " ("
        << report.suppressed << " suppressed) across "
        << report.filesScanned << " files\n";
    return out.str();
}

std::string
formatJson(const Report &report)
{
    std::vector<moca::JsonValue> findings;
    for (const Finding &f : report.findings)
        findings.push_back(moca::jsonObject({{{"rule", f.rule},
                                              {"file", f.file},
                                              {"line", f.line},
                                              {"message", f.message},
                                              {"snippet", f.snippet}}}));
    return moca::jsonDocument(
        {{{"version", 1}},
         {{"files_scanned", report.filesScanned}},
         {{"suppressed", report.suppressed}},
         {{"findings", moca::jsonArray(findings, 4, 2)}}});
}

int
exitCode(const Report &report)
{
    return report.findings.empty() ? 0 : 1;
}

} // namespace detlint
