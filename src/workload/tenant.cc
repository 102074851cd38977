#include "src/workload/tenant.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/common/logging.h"
#include "src/common/units.h"

namespace cubessd::workload {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
    case ArrivalKind::Poisson: return "poisson";
    case ArrivalKind::Bursty: return "bursty";
    }
    return "unknown";
}

std::string
TenantSpec::validate() const
{
    if (name.empty())
        return "tenant name must not be empty";
    if (workload.name.empty() && trace.empty())
        return "tenant '" + name +
               "': needs a workload personality or a trace file";
    if (weight == 0)
        return "tenant '" + name + "': weight must be at least 1";
    if (namespaceFraction < 0.0 || namespaceFraction > 1.0)
        return "tenant '" + name +
               "': namespace fraction must be in [0, 1]";
    if (rate < 0.0)
        return "tenant '" + name + "': rate must be non-negative";
    if (burstMean < 1.0)
        return "tenant '" + name + "': burst mean must be at least 1";
    return "";
}

std::string
parseDuration(const std::string &text, SimTime *out)
{
    if (text.empty())
        return "empty duration";
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        return "bad duration '" + text + "': expected <number><unit>";
    if (value < 0.0)
        return "bad duration '" + text + "': must be non-negative";
    const std::string unit(end);
    double scale = 0.0;
    if (unit == "ns")
        scale = 1.0;
    else if (unit == "us")
        scale = static_cast<double>(kMicrosecond);
    else if (unit == "ms")
        scale = static_cast<double>(kMillisecond);
    else if (unit == "s")
        scale = static_cast<double>(kSecond);
    else
        return "bad duration '" + text +
               "': unit must be ns, us, ms or s";
    *out = static_cast<SimTime>(value * scale);
    return "";
}

namespace {

std::string
lowered(const std::string &text)
{
    std::string out = text;
    for (auto &ch : out)
        ch = static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch)));
    return out;
}

std::string
parsePositiveDouble(const std::string &key, const std::string &value,
                    double *out)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(parsed > 0.0))
        return "bad " + key + " '" + value +
               "': expected a positive number";
    *out = parsed;
    return "";
}

/** Apply one "key=value" option to the spec being built. */
std::string
applyOption(const std::string &token, TenantSpec *spec)
{
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
        return "bad tenant option '" + token +
               "': expected <key>=<value>";
    const std::string key = lowered(token.substr(0, eq));
    const std::string value = token.substr(eq + 1);

    if (key == "w" || key == "weight") {
        // Digits only, in 32 bits: strtoull alone would accept a sign
        // and wrap "-1" or 2^32 + 1 into a valid-looking weight.
        char *end = nullptr;
        errno = 0;
        const unsigned long long parsed =
            std::strtoull(value.c_str(), &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
            *end != '\0' || errno == ERANGE || parsed == 0 ||
            parsed > std::numeric_limits<std::uint32_t>::max())
            return "bad weight '" + value +
                   "': expected a positive integer";
        spec->weight = static_cast<std::uint32_t>(parsed);
        return "";
    }
    if (key == "slo") {
        const std::string err = parseDuration(value, &spec->sloTarget);
        return err.empty() ? "" : "bad slo: " + err;
    }
    if (key == "rate")
        return parsePositiveDouble("rate", value, &spec->rate);
    if (key == "burst")
        return parsePositiveDouble("burst", value, &spec->burstMean);
    if (key == "ns") {
        double fraction = 0.0;
        const std::string err =
            parsePositiveDouble("ns", value, &fraction);
        if (!err.empty())
            return err;
        if (fraction > 1.0)
            return "bad ns '" + value + "': fraction must be <= 1";
        spec->namespaceFraction = fraction;
        return "";
    }
    if (key == "arrival") {
        const std::string mode = lowered(value);
        if (mode == "poisson")
            spec->arrival = ArrivalKind::Poisson;
        else if (mode == "bursty")
            spec->arrival = ArrivalKind::Bursty;
        else
            return "bad arrival '" + value +
                   "': expected poisson or bursty";
        return "";
    }
    if (key == "trace") {
        spec->trace = value;
        return "";
    }
    return "unknown tenant option '" + key +
           "' (expected w, slo, rate, burst, ns, arrival or trace)";
}

}  // namespace

std::string
parseTenantSpec(const std::string &text, TenantSpec *spec)
{
    *spec = TenantSpec{};

    std::vector<std::string> tokens;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        const auto colon = text.find(':', begin);
        const auto end = colon == std::string::npos ? text.size() : colon;
        tokens.push_back(text.substr(begin, end - begin));
        if (colon == std::string::npos)
            break;
        begin = colon + 1;
    }

    if (tokens.size() < 2 || tokens[0].empty())
        return "bad tenant spec '" + text +
               "': expected <name>:<workload>[:<key>=<value>]*";
    spec->name = tokens[0];

    // The second token is the workload personality, unless it is a
    // key=value option (a trace-driven tenant has no personality).
    std::size_t firstOption = 2;
    if (tokens[1].find('=') != std::string::npos) {
        firstOption = 1;
    } else {
        const auto found = findWorkload(tokens[1]);
        if (!found)
            return "bad tenant spec '" + text + "': unknown workload '" +
                   tokens[1] + "'";
        spec->workload = *found;
    }

    for (std::size_t i = firstOption; i < tokens.size(); ++i) {
        const std::string err = applyOption(tokens[i], spec);
        if (!err.empty())
            return "bad tenant spec '" + text + "': " + err;
    }
    return spec->validate();
}

std::string
parseTenantList(const std::string &text, std::vector<TenantSpec> *specs)
{
    std::size_t begin = 0;
    while (begin <= text.size()) {
        const auto comma = text.find(',', begin);
        const auto end = comma == std::string::npos ? text.size() : comma;
        const std::string item = text.substr(begin, end - begin);
        if (item.empty())
            return "bad tenant list '" + text + "': empty entry";
        TenantSpec spec;
        const std::string err = parseTenantSpec(item, &spec);
        if (!err.empty())
            return err;
        specs->push_back(std::move(spec));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return "";
}

std::string
validateTenants(const std::vector<TenantSpec> &specs)
{
    if (specs.empty())
        return "at least one tenant is required";
    double fractionSum = 0.0;
    std::size_t defaulted = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string err = specs[i].validate();
        if (!err.empty())
            return err;
        for (std::size_t j = 0; j < i; ++j)
            if (specs[j].name == specs[i].name)
                return "duplicate tenant name '" + specs[i].name + "'";
        if (specs[i].namespaceFraction == 0.0)
            ++defaulted;
        fractionSum += specs[i].namespaceFraction;
    }
    if (fractionSum > 1.0 + 1e-9)
        return "tenant namespace fractions sum to more than 1";
    if (defaulted == 0 && fractionSum < 1.0 - 1e-9)
        return "tenant namespace fractions must sum to 1 when all are "
               "explicit";
    if (defaulted > 0 && fractionSum >= 1.0 - 1e-9)
        return "explicit namespace fractions leave no space for the "
               "tenants without one";
    return "";
}

ArrivalProcess::ArrivalProcess(ArrivalKind kind, double ratePerSecond,
                               double burstMean, std::uint64_t seed)
    : kind_(kind), rate_(ratePerSecond), burstMean_(burstMean), rng_(seed)
{
    if (!(ratePerSecond > 0.0))
        fatal("ArrivalProcess: rate must be positive (got %.3f)",
              ratePerSecond);
    if (burstMean < 1.0)
        fatal("ArrivalProcess: burst mean must be at least 1");
    // Poisson: epochs at the request rate, one request each. Bursty:
    // epochs slowed by the mean batch size so the average rate is
    // unchanged while short-term demand arrives in clumps.
    const double epochsPerSecond =
        kind == ArrivalKind::Bursty ? ratePerSecond / burstMean
                                    : ratePerSecond;
    epochMeanNs_ = static_cast<double>(kSecond) / epochsPerSecond;
}

SimTime
ArrivalProcess::nextGap()
{
    const double gap = rng_.exponential(epochMeanNs_);
    return static_cast<SimTime>(std::max(0.0, gap));
}

std::uint32_t
ArrivalProcess::batchSize()
{
    if (kind_ == ArrivalKind::Poisson)
        return 1;
    // Geometric with mean burstMean_ via inversion: support {1, 2, ...},
    // P(k) = p (1-p)^(k-1) with p = 1 / burstMean_.
    const double p = 1.0 / burstMean_;
    const double u = std::max(rng_.uniform(), 1e-12);
    const double k = std::ceil(std::log(u) / std::log1p(-p));
    return static_cast<std::uint32_t>(std::max(1.0, std::min(k, 4096.0)));
}

}  // namespace cubessd::workload
