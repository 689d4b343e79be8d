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
    std::ostringstream out;
    out << "{\n  \"version\": 1,\n  \"files_scanned\": "
        << report.filesScanned
        << ",\n  \"suppressed\": " << report.suppressed
        << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        out << (i == 0 ? "" : ",") << "\n    {\"rule\": \""
            << moca::jsonEscape(f.rule) << "\", \"file\": \""
            << moca::jsonEscape(f.file) << "\", \"line\": " << f.line
            << ", \"message\": \"" << moca::jsonEscape(f.message)
            << "\", \"snippet\": \"" << moca::jsonEscape(f.snippet)
            << "\"}";
    }
    out << (report.findings.empty() ? "" : "\n  ") << "]\n}\n";
    return out.str();
}

int
exitCode(const Report &report)
{
    return report.findings.empty() ? 0 : 1;
}

} // namespace detlint
