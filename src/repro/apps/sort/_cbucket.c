/* Compiled stable bucket scatter for the sort's host binning.
 *
 * scatter(keys, out, shift, mask) bins the uint32 keys by the bucket
 * index (key >> shift) & mask, a window of log2(mask + 1) key bits:
 * one histogram pass, then one scatter pass that writes each bucket's
 * keys into out in input order.  It returns the list of the mask + 1
 * bucket counts, so bucket b is out[sum(counts[:b]) : sum(counts[:b+1])].
 *
 * This is the compiled form of the numpy body of split_by_bits in
 * repro.apps.sort.bucketsort (a stable argsort of the bucket index):
 * both place every key at the same position, so the output is byte
 * for byte the same.  keys may be any 1-D uint32 buffer, read-only or
 * strided; out must be a writable C-contiguous uint32 buffer of the
 * same length that does not overlap keys.  Only the buffer protocol is
 * used, not the numpy C-API.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* the keys' struct format: native uint32 */
static int
is_uint32(const Py_buffer *view)
{
    const char *f = view->format;
    if (f == NULL || view->itemsize != 4)
        return 0;
    if (*f == '@' || *f == '=')
        f++;
    return strcmp(f, "I") == 0;
}

static PyObject *
cbucket_scatter(PyObject *module, PyObject *args)
{
    PyObject *keys_obj, *out_obj;
    unsigned int shift;
    unsigned long long mask_ll;
    if (!PyArg_ParseTuple(args, "OOIK:scatter", &keys_obj, &out_obj, &shift,
                          &mask_ll))
        return NULL;
    if (shift > 31) {
        PyErr_Format(PyExc_ValueError, "shift %u outside 32-bit keys", shift);
        return NULL;
    }
    if (mask_ll > (0xFFFFFFFFULL >> shift) || (mask_ll & (mask_ll + 1))) {
        PyErr_Format(PyExc_ValueError,
                     "mask %llu is not a bit window of 32-bit keys at shift %u",
                     mask_ll, shift);
        return NULL;
    }
    const uint32_t mask = (uint32_t)mask_ll;
    const size_t n_buckets = (size_t)mask_ll + 1;

    Py_buffer keys, out;
    if (PyObject_GetBuffer(keys_obj, &keys, PyBUF_STRIDED_RO | PyBUF_FORMAT) < 0)
        return NULL;
    if (PyObject_GetBuffer(out_obj, &out,
                           PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE | PyBUF_FORMAT) < 0) {
        PyBuffer_Release(&keys);
        return NULL;
    }
    PyObject *result = NULL;
    Py_ssize_t *counts = NULL;
    if (keys.ndim != 1 || out.ndim != 1) {
        PyErr_SetString(PyExc_ValueError, "keys and out must be 1-D");
        goto done;
    }
    if (!is_uint32(&keys) || !is_uint32(&out)) {
        PyErr_SetString(PyExc_TypeError, "keys and out must hold uint32");
        goto done;
    }
    const Py_ssize_t n = keys.shape[0];
    if (out.shape[0] != n) {
        PyErr_Format(PyExc_ValueError, "out holds %zd keys, keys %zd",
                     out.shape[0], n);
        goto done;
    }
    const Py_ssize_t stride = keys.strides[0];
    const char *src = (const char *)keys.buf;
    uint32_t *dst = (uint32_t *)out.buf;
    if (n > 0) {
        /* the span keys occupies, whichever way its stride runs */
        const char *lo = stride < 0 ? src + (n - 1) * stride : src;
        const char *hi = (stride < 0 ? src : src + (n - 1) * stride) + 4;
        if ((const char *)dst < hi && lo < (const char *)(dst + n)) {
            PyErr_SetString(PyExc_ValueError, "out overlaps keys");
            goto done;
        }
    }

    counts = PyMem_Calloc(n_buckets, sizeof(Py_ssize_t));
    if (counts == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        uint32_t k = *(const uint32_t *)(src + i * stride);
        counts[(k >> shift) & mask]++;
    }
    /* counts become write cursors (exclusive prefix sums) for the scatter,
     * then return to counts as each cursor reaches its bucket's end */
    Py_ssize_t start = 0;
    for (size_t b = 0; b < n_buckets; b++) {
        Py_ssize_t c = counts[b];
        counts[b] = start;
        start += c;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        uint32_t k = *(const uint32_t *)(src + i * stride);
        dst[counts[(k >> shift) & mask]++] = k;
    }

    result = PyList_New((Py_ssize_t)n_buckets);
    if (result == NULL)
        goto done;
    Py_ssize_t prev = 0;
    for (size_t b = 0; b < n_buckets; b++) {
        PyObject *c = PyLong_FromSsize_t(counts[b] - prev);
        if (c == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, (Py_ssize_t)b, c);
        prev = counts[b];
    }

done:
    PyMem_Free(counts);
    PyBuffer_Release(&out);
    PyBuffer_Release(&keys);
    return result;
}

static PyMethodDef cbucket_methods[] = {
    {"scatter", cbucket_scatter, METH_VARARGS,
     "scatter(keys, out, shift, mask) -> bucket counts: stable-bin uint32 "
     "keys into out by (key >> shift) & mask"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cbucket_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.apps.sort._cbucket",
    .m_doc = "Compiled stable bucket scatter (see repro.apps.sort.bucketsort).",
    .m_size = -1,
    .m_methods = cbucket_methods,
};

PyMODINIT_FUNC
PyInit__cbucket(void)
{
    return PyModule_Create(&cbucket_module);
}
