/**
 * @file
 * The paper's evaluation as one result matrix. Figures 2, 9, 12, 13,
 * 14 and 15 and Tables II, III and IV all read the same twelve design
 * points over the same workloads, so the points are declared once (in
 * paper.cc: a label, an OrgKind and the LLT/predictor settings each
 * runs with) and each artifact is a printer that maps its own column
 * headings onto them. One runMatrix sweep feeds all nine.
 */

#ifndef CAMEO_EXP_PAPER_HH
#define CAMEO_EXP_PAPER_HH

#include <ostream>
#include <string_view>
#include <vector>

#include "exp/experiment.hh"

namespace cameo
{

/** Label of the no-stacked-DRAM point every artifact normalizes to. */
inline constexpr std::string_view kPaperBaseline = "Baseline";

/** The twelve design points applied to @p base (the bench config),
 *  Baseline first. */
std::vector<DesignPoint> paperPoints(const SystemConfig &base);

/** One paper figure or table, printed from the matrix. */
struct PaperArtifact
{
    /** Table title; Table II appends its scale factor. */
    std::string_view title;
    /** The points the artifact shows, under its own headings. */
    std::vector<MatrixColumn> columns;
    void (*print)(const PaperArtifact &artifact, const ResultMatrix &matrix,
                  std::ostream &os);
};

/** The nine artifacts, in the paper's order. */
const std::vector<PaperArtifact> &paperArtifacts();

/** Print every artifact, each after a blank line. */
void printPaperArtifacts(const ResultMatrix &matrix, std::ostream &os);

/** Write Figure 13's comparison as CSV (see writeSpeedupCsv). */
bool writePaperCsv(std::ostream &out, const ResultMatrix &matrix);

} // namespace cameo

#endif // CAMEO_EXP_PAPER_HH
