#include "workloads/imagedb.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "workloads/rates.hh"

namespace gpufs {
namespace workloads {

namespace {

float
unitFloat(uint64_t h)
{
    // 24 mantissa-safe bits -> [0, 1).
    return static_cast<float>(h >> 40) * (1.0f / 16777216.0f);
}

} // namespace

float
queryElement(uint64_t query_seed, uint32_t q, uint32_t e)
{
    return unitFloat(hashCombine(hashCombine(query_seed, 0x9e3779b9u + q), e));
}

std::vector<float>
queryImage(uint64_t query_seed, uint32_t q, uint32_t dim)
{
    std::vector<float> img(dim);
    for (uint32_t e = 0; e < dim; ++e)
        img[e] = queryElement(query_seed, q, e);
    return img;
}

float
dbElement(uint64_t db_seed, uint32_t i, uint32_t e)
{
    return unitFloat(hashCombine(hashCombine(db_seed, i), e));
}

void
addImageDb(hostfs::HostFs &fs, const ImageDbSpec &spec, uint64_t query_seed)
{
    // Copy what the generator closure needs (the spec may be a
    // temporary); the planted map is shared, immutable after setup.
    auto planted = std::make_shared<std::map<uint32_t, uint32_t>>(
        spec.planted);
    uint64_t db_seed = spec.seed;
    uint64_t image_bytes = spec.imageBytes();

    auto gen = [=](uint64_t offset, uint64_t len, uint8_t *dst) {
        uint64_t pos = offset;
        const uint64_t end = offset + len;
        while (pos < end) {
            uint32_t img = static_cast<uint32_t>(pos / image_bytes);
            uint64_t in_img = pos % image_bytes;
            uint32_t elem = static_cast<uint32_t>(in_img / sizeof(float));
            uint32_t in_elem = static_cast<uint32_t>(in_img % sizeof(float));

            auto it = planted->find(img);
            float v = (it != planted->end())
                ? queryElement(query_seed, it->second, elem)
                : dbElement(db_seed, img, elem);
            uint8_t bytes[sizeof(float)];
            std::memcpy(bytes, &v, sizeof(float));

            uint64_t n = std::min<uint64_t>(sizeof(float) - in_elem,
                                            end - pos);
            std::memcpy(dst + (pos - offset), bytes + in_elem, n);
            pos += n;
        }
    };
    Status st = fs.addFile(spec.path,
                           std::make_unique<hostfs::SyntheticContent>(gen),
                           spec.fileBytes());
    if (!ok(st))
        gpufs_fatal("addImageDb(%s): %s", spec.path.c_str(), statusName(st));
}

double
distanceSq(const float *a, const float *b, uint32_t dim, double threshold,
           uint32_t *elems_examined)
{
    double sum = 0.0;
    uint32_t e = 0;
    while (e < dim) {
        // Check the threshold every 16 elements: cheap and close to
        // what a warp-synchronous early-exit loop does.
        uint32_t stop = std::min(dim, e + 16);
        for (; e < stop; ++e) {
            double d = double(a[e]) - double(b[e]);
            sum += d * d;
        }
        if (sum > threshold)
            break;
    }
    if (elems_examined)
        *elems_examined = e;
    return sum;
}

std::vector<ImageDbSpec>
makePaperDbs(uint64_t seed, uint32_t num_queries, bool plant_queries,
             double scale)
{
    // Paper: "3 database files, of sizes 383, 357 and 400 MB,
    // containing about 25,000 images each".
    const double mb[3] = {383.0, 357.0, 400.0};
    std::vector<ImageDbSpec> dbs(3);
    SplitMix64 rng(hash64(seed));
    for (int d = 0; d < 3; ++d) {
        dbs[d].path = "/data/imagedb" + std::to_string(d) + ".bin";
        dbs[d].seed = hashCombine(seed, 1000 + d);
        dbs[d].dim = 4096;
        uint64_t bytes = static_cast<uint64_t>(mb[d] * scale * 1e6);
        dbs[d].numImages =
            static_cast<uint32_t>(bytes / dbs[d].imageBytes());
    }
    if (plant_queries) {
        // "Images from the input are injected at random locations in
        // the databases": every query lands in one random (db, slot).
        for (uint32_t q = 0; q < num_queries; ++q) {
            for (;;) {
                int d = static_cast<int>(rng.nextBelow(3));
                uint32_t slot = static_cast<uint32_t>(
                    rng.nextBelow(dbs[d].numImages));
                if (dbs[d].planted.count(slot))
                    continue;   // slot taken; pick another
                dbs[d].planted.emplace(slot, q);
                break;
            }
        }
    }
    return dbs;
}

std::vector<MatchResult>
cpuImageSearch(consistency::WrapFs &fs, const std::vector<ImageDbSpec> &dbs,
               uint64_t query_seed, uint32_t num_queries, double threshold,
               Time *virt_elapsed)
{
    std::vector<MatchResult> results(num_queries);
    if (num_queries == 0) {
        if (virt_elapsed)
            *virt_elapsed = 0;
        return results;
    }
    const uint32_t dim = dbs.empty() ? 4096 : dbs[0].dim;

    // Pre-materialize the query set (the paper's 31.5 MB input file).
    std::vector<std::vector<float>> queries;
    queries.reserve(num_queries);
    for (uint32_t q = 0; q < num_queries; ++q)
        queries.push_back(queryImage(query_seed, q, dim));

    // The OpenMP version: one pass over each database in priority
    // order; all 8 cores scan each loaded chunk against their static
    // share of still-unmatched queries. I/O is sequential (one
    // reader); compute is the per-core maximum.
    Time io_time = 0;
    std::vector<Time> core_compute(kCpuCores, 0);
    std::vector<uint8_t> chunk;
    const uint64_t chunk_images = 256;

    for (size_t d = 0; d < dbs.size(); ++d) {
        const ImageDbSpec &spec = dbs[d];
        Status st;
        int fd = fs.open(spec.path, hostfs::O_RDONLY_F, &st);
        if (fd < 0)
            gpufs_fatal("cpuImageSearch: open(%s): %s", spec.path.c_str(),
                        statusName(st));
        const uint64_t image_bytes = spec.imageBytes();
        chunk.resize(chunk_images * image_bytes);
        for (uint64_t base = 0; base < spec.numImages;
             base += chunk_images) {
            uint64_t n_img =
                std::min<uint64_t>(chunk_images, spec.numImages - base);
            hostfs::IoResult r =
                fs.pread(fd, chunk.data(), n_img * image_bytes,
                         base * image_bytes, io_time);
            io_time = r.done;
            for (uint32_t q = 0; q < num_queries; ++q) {
                if (results[q].found())
                    continue;
                unsigned core = q % kCpuCores;
                const float *qv = queries[q].data();
                for (uint64_t i = 0; i < n_img; ++i) {
                    const auto *img = reinterpret_cast<const float *>(
                        chunk.data() + i * image_bytes);
                    core_compute[core] += kImagePairCostCpuCore;
                    double dist = distanceSq(img, qv, dim, threshold,
                                             nullptr);
                    if (dist <= threshold) {
                        results[q].db = static_cast<int>(d);
                        results[q].image = static_cast<uint32_t>(base + i);
                        break;
                    }
                }
            }
        }
        fs.close(fd);
    }
    if (virt_elapsed) {
        Time compute =
            *std::max_element(core_compute.begin(), core_compute.end());
        // I/O overlaps compute in the OpenMP pipeline; the run ends
        // when the slower of the two finishes.
        *virt_elapsed = std::max(io_time, compute);
    }
    return results;
}

} // namespace workloads
} // namespace gpufs
