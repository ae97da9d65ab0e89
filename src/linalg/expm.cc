#include "linalg/expm.h"

#include <vector>

#include "linalg/kernels.h"

namespace qpc {

CMatrix
expmHermitian(const EigResult& eig, double dt)
{
    std::vector<Complex> phases(eig.values.size());
    for (std::size_t i = 0; i < phases.size(); ++i)
        phases[i] = std::polar(1.0, -dt * eig.values[i]);
    return kernels::scaledDaggerSandwich(eig.vectors, phases);
}

CMatrix
expmHermitian(const CMatrix& h, double dt)
{
    return expmHermitian(eigHermitian(h), dt);
}

} // namespace qpc
